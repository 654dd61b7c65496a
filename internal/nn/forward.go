package nn

import (
	"math"

	"vrdag/internal/tensor"
)

// This file provides tape-free forward passes for inference. Generation
// (Algorithm 1) never needs gradients, and skipping the tape removes all
// bookkeeping allocations from the hot path. Outputs come from the pooled
// arena (tensor.Get) and layer intermediates are returned to it with
// tensor.Put, so a warm server generates with near-zero garbage.
// Equivalence with the taped versions is covered by tests.

// Forward computes x·W + b without recording gradients. The result is
// pool-allocated; callers that discard it should tensor.Put it.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.Get(x.Rows, l.Out)
	tensor.MatMulInto(out, x, l.W.Value)
	out.AddRowVecInPlace(l.B.Value)
	return out
}

// applyInPlace applies the activation elementwise over a raw slice — the
// tape-free counterpart of the fused tape activations.
func (a Activation) applyInPlace(x []float64) {
	switch a {
	case ActReLU:
		// Stays math.Max rather than tensor.VReLU: Max(0, -0) = +0 while
		// the blend kernel keeps -0, and the taped forward this must match
		// bit-for-bit uses Max.
		for i, v := range x {
			x[i] = math.Max(0, v)
		}
	case ActLeakyReLU:
		tensor.VLeakyReLU(x, 0.2)
	case ActTanh:
		tensor.VTanh(x)
	case ActSigmoid:
		tensor.VSigmoid(x)
	}
}

// Forward runs the MLP without recording gradients. Hidden-layer
// intermediates go back to the arena; only the returned matrix survives.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	cur := x
	for i, l := range m.Layers {
		nxt := l.Forward(cur)
		if i+1 < len(m.Layers) {
			m.Hidden.applyInPlace(nxt.Data)
		} else {
			m.OutAct.applyInPlace(nxt.Data)
		}
		if cur != x {
			tensor.Put(cur)
		}
		cur = nxt
	}
	return cur
}

// Forward computes one GRU update without recording gradients. All gate
// buffers are recycled; the returned state is pool-allocated.
func (g *GRUCell) Forward(x, h *tensor.Matrix) *tensor.Matrix {
	gate := func(w, u, b *Param, act Activation) *tensor.Matrix {
		out := tensor.Get(x.Rows, g.HiddenDim)
		tensor.MatMulInto(out, x, w.Value)
		tensor.MatMulInto(out, h, u.Value)
		out.AddRowVecInPlace(b.Value)
		act.applyInPlace(out.Data)
		return out
	}
	z := gate(g.Wz, g.Uz, g.Bz, ActSigmoid)
	r := gate(g.Wr, g.Ur, g.Br, ActSigmoid)
	// r ⊙ h reuses the r buffer; r is not needed afterwards.
	for i := range r.Data {
		r.Data[i] *= h.Data[i]
	}
	ht := tensor.Get(x.Rows, g.HiddenDim)
	tensor.MatMulInto(ht, x, g.Wh.Value)
	tensor.MatMulInto(ht, r, g.Uh.Value)
	ht.AddRowVecInPlace(g.Bh.Value)
	tensor.VTanh(ht.Data)
	out := tensor.Get(h.Rows, h.Cols)
	for i, hv := range h.Data {
		out.Data[i] = hv + z.Data[i]*(ht.Data[i]-hv)
	}
	tensor.Put(z)
	tensor.Put(r)
	tensor.Put(ht)
	return out
}
