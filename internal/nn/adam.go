package nn

import (
	"math"

	"vrdag/internal/tensor"
)

// GradSink receives parameter gradients flushed from a forward/backward
// pass. *Adam accumulates them straight into the optimizer buffers; a test
// can substitute a sink that records them instead.
type GradSink interface {
	Accumulate(p *Param, grad *tensor.Matrix)
}

// Adam implements the Adam optimizer with optional global-norm gradient
// clipping. Gradients are read from the tape nodes captured during the
// forward pass via a GradSource.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // max global gradient norm; 0 disables clipping
	t       int
	params  []*Param
	grads   []*tensor.Matrix // external gradient buffers, parallel to params
	binding map[*Param]int
}

// NewAdam creates an optimizer over the given parameters with sensible
// defaults (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5,
		params:  params,
		grads:   make([]*tensor.Matrix, len(params)),
		binding: make(map[*Param]int, len(params)),
	}
	for i, p := range params {
		a.grads[i] = tensor.New(p.Value.Rows, p.Value.Cols)
		a.binding[p] = i
		p.m = tensor.New(p.Value.Rows, p.Value.Cols)
		p.v = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return a
}

// ZeroGrads clears the accumulated gradient buffers.
func (a *Adam) ZeroGrads() {
	for _, g := range a.grads {
		g.Zero()
	}
}

// Accumulate adds the gradient captured on a tape node into the buffer of
// its parameter. Typical usage: after Tape.Backward, call Accumulate for
// each (param, node) pair that was bound with Tape.Var.
func (a *Adam) Accumulate(p *Param, grad *tensor.Matrix) {
	i, ok := a.binding[p]
	if !ok {
		panic("nn: Accumulate on unknown parameter " + p.Name)
	}
	if grad != nil {
		a.grads[i].AddInPlace(grad)
	}
}

// GradNorm returns the current global gradient L2 norm.
func (a *Adam) GradNorm() float64 {
	s := 0.0
	for _, g := range a.grads {
		for _, v := range g.Data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Step applies one Adam update using the accumulated gradients, then
// clears them. Returns the (pre-clip) global gradient norm.
func (a *Adam) Step() float64 {
	a.t++
	norm := a.GradNorm()
	scale := 1.0
	if a.Clip > 0 && norm > a.Clip {
		scale = a.Clip / (norm + 1e-12)
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		g := a.grads[i]
		for j := range p.Value.Data {
			gj := g.Data[j] * scale
			p.m.Data[j] = a.Beta1*p.m.Data[j] + (1-a.Beta1)*gj
			p.v.Data[j] = a.Beta2*p.v.Data[j] + (1-a.Beta2)*gj*gj
			mHat := p.m.Data[j] / bc1
			vHat := p.v.Data[j] / bc2
			p.Value.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
	a.ZeroGrads()
	return norm
}

// Ctx carries the tape through a forward pass and tracks the tape nodes
// created for each parameter so their gradients can be routed into the
// sink afterwards. An eval context (sink == nil) records parameters as
// constants, skipping gradient bookkeeping entirely.
type Ctx struct {
	Tape  *tensor.Tape
	sink  GradSink
	nodes map[*Param][]*tensor.Node
}

// NewTrainCtx creates a context that tracks parameter gradients for adam.
func NewTrainCtx(tape *tensor.Tape, adam *Adam) *Ctx {
	if adam == nil { // avoid a typed-nil sink masquerading as a training ctx
		return NewEvalCtx(tape)
	}
	return NewSinkCtx(tape, adam)
}

// NewSinkCtx creates a training context whose Flush delivers gradients to
// an arbitrary sink: the optimizer itself (equivalent to NewTrainCtx) or a
// test's recorder.
func NewSinkCtx(tape *tensor.Tape, sink GradSink) *Ctx {
	return &Ctx{Tape: tape, sink: sink, nodes: make(map[*Param][]*tensor.Node)}
}

// NewEvalCtx creates an inference context: parameters become constants.
func NewEvalCtx(tape *tensor.Tape) *Ctx {
	return &Ctx{Tape: tape}
}

// Training reports whether this context tracks gradients.
func (c *Ctx) Training() bool { return c.sink != nil }

// Var returns a tape node for parameter p. In training contexts the node
// is differentiable and remembered for Flush; in eval contexts it is a
// constant.
func (c *Ctx) Var(p *Param) *tensor.Node {
	if c.sink == nil {
		return c.Tape.Const(p.Value)
	}
	n := c.Tape.Var(p.Value)
	c.nodes[p] = append(c.nodes[p], n)
	return n
}

// Flush moves all captured node gradients into the sink. Call after
// Tape.Backward and before the gradients are consumed (Adam.Step). Each
// gradient buffer is returned to the arena as soon as it has been
// accumulated — Var grads are the one class of buffer Backward cannot
// release itself, because Flush reads them after the sweep finishes.
func (c *Ctx) Flush() {
	if c.sink == nil {
		return
	}
	for p, ns := range c.nodes {
		for _, n := range ns {
			if n.Grad != nil {
				c.sink.Accumulate(p, n.Grad)
				c.Tape.ReleaseGrad(n)
			}
		}
	}
	c.nodes = make(map[*Param][]*tensor.Node)
}
