// Package nn provides neural-network building blocks on top of the tensor
// autodiff engine: linear layers, multi-layer perceptrons, a GRU cell, the
// Time2Vec temporal embedding, parameter collection, and the Adam optimizer.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"vrdag/internal/tensor"
)

// Param is a named trainable matrix together with its Adam state.
type Param struct {
	Name  string
	Value *tensor.Matrix
	m, v  *tensor.Matrix // Adam first/second moments
}

// Module is anything exposing trainable parameters.
type Module interface {
	Params() []*Param
}

// CollectParams flattens the parameters of several modules.
func CollectParams(mods ...Module) []*Param {
	var out []*Param
	for _, m := range mods {
		out = append(out, m.Params()...)
	}
	return out
}

// NumParams returns the total scalar parameter count across modules.
func NumParams(mods ...Module) int {
	n := 0
	for _, p := range CollectParams(mods...) {
		n += len(p.Value.Data)
	}
	return n
}

// xavier returns the Glorot-uniform bound for a fanIn×fanOut weight.
func xavier(fanIn, fanOut int) float64 {
	return math.Sqrt(6.0 / float64(fanIn+fanOut))
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W, B *Param
	In   int
	Out  int
}

// NewLinear creates a Glorot-initialised linear layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	bound := xavier(in, out)
	return &Linear{
		W:   &Param{Name: name + ".W", Value: tensor.RandUniform(in, out, -bound, bound, rng)},
		B:   &Param{Name: name + ".b", Value: tensor.New(1, out)},
		In:  in,
		Out: out,
	}
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Apply computes x·W + b on the tape as a single fused node.
func (l *Linear) Apply(c *Ctx, x *tensor.Node) *tensor.Node {
	return l.ApplyAct(c, tensor.ActIdent, x)
}

// ApplyAct computes act([x₁ ‖ … ‖ x_k]·W + b) on the tape as one fused
// node: the activation is folded in, and each x_i is multiplied by its
// row block of W in place (tensor.Tape.AffineSum), so neither the
// pre-activation nor the concatenation is stored.
func (l *Linear) ApplyAct(c *Ctx, act tensor.Act, xs ...*tensor.Node) *tensor.Node {
	var buf [4]tensor.Term
	terms := blockTerms(buf[:0], c.Var(l.W), xs)
	return c.Tape.AffineSum(c.Var(l.B), act, terms...)
}

// blockTerms appends one term per x to terms, x_i reading the rows of w
// after those of x_1 … x_{i−1}, and panics unless the xs together are as
// wide as w is tall.
func blockTerms(terms []tensor.Term, w *tensor.Node, xs []*tensor.Node) []tensor.Term {
	off := 0
	for _, x := range xs {
		terms = append(terms, tensor.Term{X: x, W: w, Off: off})
		off += x.Value.Cols
	}
	if off != w.Value.Rows {
		panic(fmt.Sprintf("nn: inputs %d columns wide against a %dx%d weight", off, w.Value.Rows, w.Value.Cols))
	}
	return terms
}

// MLP is a stack of linear layers with a shared hidden activation. The
// output layer applies OutAct (the identity, tensor.ActIdent, by default).
type MLP struct {
	Layers []*Linear
	Hidden tensor.Act
	OutAct tensor.Act
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [in, h, out].
func NewMLP(name string, sizes []int, hidden tensor.Act, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs >=2 sizes, got %v", sizes))
	}
	m := &MLP{Hidden: hidden}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], rng))
	}
	return m
}

// Params implements Module.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Apply runs the MLP forward on the tape over [x₁ ‖ … ‖ x_k], one fused
// affine+activation node per layer; the first reads the xs in place
// (Linear.ApplyAct).
func (m *MLP) Apply(c *Ctx, xs ...*tensor.Node) *tensor.Node {
	var x *tensor.Node
	for i, l := range m.Layers {
		act := m.Hidden
		if i+1 == len(m.Layers) {
			act = m.OutAct
		}
		if i == 0 {
			x = l.ApplyAct(c, act, xs...)
		} else {
			x = l.ApplyAct(c, act, x)
		}
	}
	return x
}

// Forward runs Apply on a throwaway eval tape and returns a pooled copy of
// the output. It is the entry point of the benchmark's nn.mlp_forward_us
// probe; nothing else outside tests calls it.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	tp := tensor.NewTape()
	defer tp.Reset()
	out := tensor.Get(x.Rows, m.Layers[len(m.Layers)-1].Out)
	copy(out.Data, m.Apply(NewEvalCtx(tp), tp.Const(x)).Value.Data)
	return out
}

// GRUCell is a standard gated recurrent unit operating on row-batched
// states: given input X (N×in) and hidden H (N×hidden) it returns the
// updated hidden state (N×hidden).
type GRUCell struct {
	Wz, Wr, Wh *Param // in×hidden
	Uz, Ur, Uh *Param // hidden×hidden
	Bz, Br, Bh *Param // 1×hidden
	InDim      int
	HiddenDim  int
}

// NewGRUCell creates a Glorot-initialised GRU cell.
func NewGRUCell(name string, in, hidden int, rng *rand.Rand) *GRUCell {
	w := func(suffix string, r, c int) *Param {
		bound := xavier(r, c)
		return &Param{Name: name + "." + suffix, Value: tensor.RandUniform(r, c, -bound, bound, rng)}
	}
	b := func(suffix string) *Param {
		return &Param{Name: name + "." + suffix, Value: tensor.New(1, hidden)}
	}
	return &GRUCell{
		Wz: w("Wz", in, hidden), Wr: w("Wr", in, hidden), Wh: w("Wh", in, hidden),
		Uz: w("Uz", hidden, hidden), Ur: w("Ur", hidden, hidden), Uh: w("Uh", hidden, hidden),
		Bz: b("bz"), Br: b("br"), Bh: b("bh"),
		InDim: in, HiddenDim: hidden,
	}
}

// Params implements Module.
func (g *GRUCell) Params() []*Param {
	return []*Param{g.Wz, g.Wr, g.Wh, g.Uz, g.Ur, g.Uh, g.Bz, g.Br, g.Bh}
}

// Step computes one GRU update of h on the tape, with input X = [x₁ ‖ …
// ‖ x_k]. Each gate is a single fused node (X·W + h·U + b with the
// activation folded in, each x_i read against its row block of W), and
// the state blend h' = (1-z)⊙h + z⊙h̃ is one Lerp node: five nodes per
// step instead of nineteen in the unfused form, and no concatenation.
func (g *GRUCell) Step(c *Ctx, h *tensor.Node, xs ...*tensor.Node) *tensor.Node {
	t := c.Tape
	z := gate(c, xs, g.Wz, h, g.Uz, g.Bz, tensor.ActSigmoid)
	r := gate(c, xs, g.Wr, h, g.Ur, g.Br, tensor.ActSigmoid)
	hTilde := gate(c, xs, g.Wh, t.Mul(r, h), g.Uh, g.Bh, tensor.ActTanh)
	return t.Lerp(h, hTilde, z)
}

// gate records act(X·W + h·U + b) as one node over the parts xs of X.
func gate(c *Ctx, xs []*tensor.Node, w *Param, h *tensor.Node, u, b *Param, act tensor.Act) *tensor.Node {
	var buf [4]tensor.Term
	terms := append(blockTerms(buf[:0], c.Var(w), xs), tensor.Term{X: h, W: c.Var(u)})
	return c.Tape.AffineSum(c.Var(b), act, terms...)
}

// Forward runs Step on a throwaway eval tape and returns a pooled copy of
// the new state. It is the entry point of the benchmark's
// nn.gru_forward_us probe; nothing else outside tests calls it.
func (g *GRUCell) Forward(x, h *tensor.Matrix) *tensor.Matrix {
	tp := tensor.NewTape()
	defer tp.Reset()
	out := tensor.Get(h.Rows, g.HiddenDim)
	copy(out.Data, g.Step(NewEvalCtx(tp), tp.Const(h), tp.Const(x)).Value.Data)
	return out
}

// Time2Vec implements the temporal embedding of Kazemi et al. (Eq. 13):
// the first component is linear in t, the rest are sin(w_r t + φ_r).
type Time2Vec struct {
	W, Phi *Param // 1×dim each
	Dim    int
}

// NewTime2Vec creates a Time2Vec embedding of the given dimensionality.
func NewTime2Vec(name string, dim int, rng *rand.Rand) *Time2Vec {
	return &Time2Vec{
		W:   &Param{Name: name + ".w", Value: tensor.RandUniform(1, dim, -1, 1, rng)},
		Phi: &Param{Name: name + ".phi", Value: tensor.RandUniform(1, dim, -math.Pi, math.Pi, rng)},
		Dim: dim,
	}
}

// Params implements Module.
func (tv *Time2Vec) Params() []*Param { return []*Param{tv.W, tv.Phi} }

// Encode returns fT(t) as a 1×dim tape node; in training contexts the
// gradients flow into W and Phi. Component 0 is linear in t, the others
// are sin(w_r t + φ_r) per Eq. (13).
func (tv *Time2Vec) Encode(c *Ctx, tt float64) *tensor.Node {
	t := c.Tape
	w := c.Var(tv.W)
	phi := c.Var(tv.Phi)
	// arg = w*t + phi
	arg := t.Add(t.Scale(w, tt), phi)
	// Split: component 0 is linear, components 1..dim-1 pass through sin.
	if tv.Dim == 1 {
		return arg
	}
	lin := t.SliceCols(arg, 0, 1)
	per := t.SliceCols(arg, 1, tv.Dim)
	return t.ConcatCols(lin, t.Sin(per))
}
