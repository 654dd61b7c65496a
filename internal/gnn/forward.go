package gnn

import (
	"math"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// Tape-free forward passes for generation (Algorithm 1). Equivalence with
// the taped versions is covered by tests. All intermediates are drawn from
// and returned to the pooled tensor arena; only the final representation
// escapes.

// EncodeValue runs the bi-flow encoder without recording gradients.
func (e *BiFlowEncoder) EncodeValue(s *dyngraph.Snapshot) *tensor.Matrix {
	adj := s.AdjCSR()
	adjT := s.AdjTCSR()
	feat := inputFeatures(s, e.cfg.InDim, e.cfg.BiFlow)
	h := e.inProj.Forward(feat)
	tensor.Put(feat)
	leakyInPlace(h)

	hops := make([]*tensor.Matrix, 0, e.cfg.Layers)
	for l := 0; l < e.cfg.Layers; l++ {
		var merged *tensor.Matrix
		if e.cfg.BiFlow {
			inAgg := adjT.MulDense(h)
			inAgg.Axpy(1+e.epsIn[l].Value.Data[0], h)
			inH := e.fIn[l].Forward(inAgg)
			tensor.Put(inAgg)
			outAgg := adj.MulDense(h)
			outAgg.Axpy(1+e.epsOut[l].Value.Data[0], h)
			outH := e.fOut[l].Forward(outAgg)
			tensor.Put(outAgg)
			both := concatCols(inH, outH)
			tensor.Put(inH)
			tensor.Put(outH)
			merged = e.fAgg.Forward(both)
			tensor.Put(both)
		} else {
			und := adj.MulDense(h)
			adjT.MulDenseInto(und, h)
			und.Axpy(1+e.epsIn[l].Value.Data[0], h)
			inH := e.fIn[l].Forward(und)
			tensor.Put(und)
			both := concatCols(inH, inH)
			tensor.Put(inH)
			merged = e.fAgg.Forward(both)
			tensor.Put(both)
		}
		if l == 0 {
			tensor.Put(h) // the projected input; later layers live on in hops
		}
		h = merged
		hops = append(hops, h)
	}
	var out *tensor.Matrix
	if len(hops) == 1 {
		out = e.fPool.Forward(hops[0])
	} else {
		jump := concatCols(hops...)
		out = e.fPool.Forward(jump)
		tensor.Put(jump)
	}
	for _, hop := range hops {
		tensor.Put(hop)
	}
	return out
}

// Forward runs the GAT layer without recording gradients.
func (g *GAT) Forward(states *tensor.Matrix, src, dst []int, n int) *tensor.Matrix {
	wh := g.W.Forward(states)
	es := make([]int, 0, len(src)+n)
	ed := make([]int, 0, len(dst)+n)
	es = append(es, src...)
	ed = append(ed, dst...)
	for v := 0; v < n; v++ {
		es = append(es, v)
		ed = append(ed, v)
	}
	e := len(es)
	d := wh.Cols
	// Per-edge scores aSrc·Wh_src + aDst·Wh_dst through LeakyReLU.
	score := make([]float64, e)
	for k := 0; k < e; k++ {
		s := g.attnSrc.B.Value.Data[0] + g.attnDst.B.Value.Data[0]
		rs, rd := wh.Row(es[k]), wh.Row(ed[k])
		for j := 0; j < d; j++ {
			s += g.attnSrc.W.Value.Data[j]*rs[j] + g.attnDst.W.Value.Data[j]*rd[j]
		}
		if s < 0 {
			s *= 0.2
		}
		score[k] = s
	}
	// Segment softmax over destinations.
	mx := make([]float64, n)
	for i := range mx {
		mx[i] = math.Inf(-1)
	}
	for k := 0; k < e; k++ {
		if score[k] > mx[ed[k]] {
			mx[ed[k]] = score[k]
		}
	}
	for k := 0; k < e; k++ {
		score[k] -= mx[ed[k]]
	}
	tensor.VExp(score)
	sum := make([]float64, n)
	for k := 0; k < e; k++ {
		sum[ed[k]] += score[k]
	}
	out := tensor.Get(n, d)
	for k := 0; k < e; k++ {
		a := score[k] / sum[ed[k]]
		orow := out.Row(ed[k])
		srow := wh.Row(es[k])
		for j := 0; j < d; j++ {
			orow[j] += a * srow[j]
		}
	}
	tensor.Put(wh)
	return out
}

func leakyInPlace(m *tensor.Matrix) {
	tensor.VLeakyReLU(m.Data, 0.2)
}

func concatCols(parts ...*tensor.Matrix) *tensor.Matrix {
	rows := parts[0].Rows
	total := 0
	for _, p := range parts {
		total += p.Cols
	}
	out := tensor.Get(rows, total)
	off := 0
	for _, p := range parts {
		for i := 0; i < rows; i++ {
			copy(out.Row(i)[off:off+p.Cols], p.Row(i))
		}
		off += p.Cols
	}
	return out
}
