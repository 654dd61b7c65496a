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
	return c.Tape.Affine(x, c.Var(l.W), c.Var(l.B), tensor.ActIdent)
}

// ApplyAct computes act(x·W + b) on the tape with the activation fused
// into the affine node, avoiding the intermediate pre-activation matrix.
func (l *Linear) ApplyAct(c *Ctx, x *tensor.Node, act tensor.Act) *tensor.Node {
	return c.Tape.Affine(x, c.Var(l.W), c.Var(l.B), act)
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

// Apply runs the MLP forward on the tape, one fused affine+activation
// node per layer.
func (m *MLP) Apply(c *Ctx, x *tensor.Node) *tensor.Node {
	for i, l := range m.Layers {
		if i+1 < len(m.Layers) {
			x = l.ApplyAct(c, x, m.Hidden)
		} else {
			x = l.ApplyAct(c, x, m.OutAct)
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

// Step computes one GRU update on the tape. Each gate is a single fused
// Affine2 node (x·W + h·U + b with the activation folded in), and the
// state blend h' = (1-z)⊙h + z⊙h̃ is one Lerp node — five nodes per step
// instead of nineteen in the unfused form.
func (g *GRUCell) Step(c *Ctx, x, h *tensor.Node) *tensor.Node {
	t := c.Tape
	z := t.Affine2(x, c.Var(g.Wz), h, c.Var(g.Uz), c.Var(g.Bz), tensor.ActSigmoid)
	r := t.Affine2(x, c.Var(g.Wr), h, c.Var(g.Ur), c.Var(g.Br), tensor.ActSigmoid)
	hTilde := t.Affine2(x, c.Var(g.Wh), t.Mul(r, h), c.Var(g.Uh), c.Var(g.Bh), tensor.ActTanh)
	return t.Lerp(h, hTilde, z)
}

// Forward runs Step on a throwaway eval tape and returns a pooled copy of
// the new state. It is the entry point of the benchmark's
// nn.gru_forward_us probe; nothing else outside tests calls it.
func (g *GRUCell) Forward(x, h *tensor.Matrix) *tensor.Matrix {
	tp := tensor.NewTape()
	defer tp.Reset()
	out := tensor.Get(h.Rows, g.HiddenDim)
	copy(out.Data, g.Step(NewEvalCtx(tp), tp.Const(x), tp.Const(h)).Value.Data)
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
