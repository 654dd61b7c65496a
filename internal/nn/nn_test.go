package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vrdag/internal/tensor"
)

func TestLinearShapesAndDeterminism(t *testing.T) {
	l1 := NewLinear("l", 4, 3, rand.New(rand.NewSource(1)))
	l2 := NewLinear("l", 4, 3, rand.New(rand.NewSource(1)))
	if !l1.W.Value.Equal(l2.W.Value, 0) {
		t.Fatal("same seed must produce identical init")
	}
	tape := tensor.NewTape()
	c := NewEvalCtx(tape)
	x := tape.Const(tensor.Randn(5, 4, 1, rand.New(rand.NewSource(2))))
	y := l1.Apply(c, x)
	if y.Value.Rows != 5 || y.Value.Cols != 3 {
		t.Fatalf("Linear output shape %dx%d", y.Value.Rows, y.Value.Cols)
	}
}

func TestMLPParamsCount(t *testing.T) {
	m := NewMLP("m", []int{4, 8, 2}, tensor.ActLeakyReLU, rand.New(rand.NewSource(1)))
	want := 4*8 + 8 + 8*2 + 2
	if got := NumParams(m); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if len(m.Params()) != 4 {
		t.Fatalf("expected 4 param tensors, got %d", len(m.Params()))
	}
}

func TestMLPRejectsTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP("m", []int{4}, tensor.ActLeakyReLU, rand.New(rand.NewSource(1)))
}

func TestGRUStepShapeAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGRUCell("gru", 6, 4, rng)
	tape := tensor.NewTape()
	c := NewEvalCtx(tape)
	x := tape.Const(tensor.Randn(7, 6, 1, rng))
	h := tape.Const(tensor.Randn(7, 4, 0.5, rng))
	h2 := g.Step(c, h, x)
	if h2.Value.Rows != 7 || h2.Value.Cols != 4 {
		t.Fatalf("GRU output shape %dx%d", h2.Value.Rows, h2.Value.Cols)
	}
	// h' is a convex combination of h and tanh(·) ∈ (-1,1), so it must be
	// bounded by max(|h|, 1).
	maxAbs := func(m *tensor.Matrix) float64 {
		mx := 0.0
		for _, v := range m.Data {
			mx = math.Max(mx, math.Abs(v))
		}
		return mx
	}
	bound := math.Max(maxAbs(h.Value), 1) + 1e-9
	if got := maxAbs(h2.Value); got > bound {
		t.Fatalf("GRU state out of bounds: %g > %g", got, bound)
	}
}

func TestGRUZeroInputKeepsFiniteState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGRUCell("gru", 3, 3, rng)
	tape := tensor.NewTape()
	c := NewEvalCtx(tape)
	h := tape.Const(tensor.New(2, 3))
	x := tape.Const(tensor.New(2, 3))
	for i := 0; i < 50; i++ {
		h = g.Step(c, h, x)
	}
	for _, v := range h.Value.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("GRU diverged on zero input")
		}
	}
}

func TestTime2VecFirstComponentLinear(t *testing.T) {
	tv := NewTime2Vec("t2v", 5, rand.New(rand.NewSource(5)))
	c := NewEvalCtx(tensor.NewTape())
	v1 := tv.Encode(c, 1).Value
	v2 := tv.Encode(c, 2).Value
	v3 := tv.Encode(c, 3).Value
	// linear component: v2-v1 == v3-v2
	if math.Abs((v2.Data[0]-v1.Data[0])-(v3.Data[0]-v2.Data[0])) > 1e-9 {
		t.Fatal("component 0 must be linear in t")
	}
	// periodic components bounded by 1
	for j := 1; j < 5; j++ {
		if math.Abs(v1.Data[j]) > 1 {
			t.Fatalf("sin component %d out of range: %g", j, v1.Data[j])
		}
	}
}

// Train a small MLP on XOR via the full Ctx/Adam pipeline; loss must drop.
func TestAdamLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mlp := NewMLP("xor", []int{2, 8, 1}, tensor.ActTanh, rng)
	adam := NewAdam(mlp.Params(), 0.05)

	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := tensor.FromRows([][]float64{{0}, {1}, {1}, {0}})

	var first, last float64
	for epoch := 0; epoch < 300; epoch++ {
		tape := tensor.NewTape()
		c := NewTrainCtx(tape, adam)
		out := mlp.Apply(c, tape.Const(x))
		loss := tape.BCEWithLogits(out, y)
		tape.Keep(loss) // read after Backward
		tape.Backward(loss)
		c.Flush()
		adam.Step()
		if epoch == 0 {
			first = loss.Value.Data[0]
		}
		last = loss.Value.Data[0]
	}
	if last > first/4 {
		t.Fatalf("XOR training failed: first=%g last=%g", first, last)
	}
	// check predictions
	tape := tensor.NewTape()
	c := NewEvalCtx(tape)
	out := tape.Sigmoid(mlp.Apply(c, tape.Const(x)))
	for i := 0; i < 4; i++ {
		pred := out.Value.Data[i] > 0.5
		want := y.Data[i] > 0.5
		if pred != want {
			t.Fatalf("XOR row %d misclassified: %g", i, out.Value.Data[i])
		}
	}
}

func TestAdamGradClipping(t *testing.T) {
	p := &Param{Name: "p", Value: tensor.FromSlice(1, 2, []float64{0, 0})}
	adam := NewAdam([]*Param{p}, 0.1)
	adam.Clip = 1
	huge := tensor.FromSlice(1, 2, []float64{1e6, 1e6})
	adam.Accumulate(p, huge)
	norm := adam.Step()
	if norm < 1e5 {
		t.Fatalf("returned norm should be pre-clip, got %g", norm)
	}
	// With clipping the step magnitude is bounded by lr (Adam normalises).
	for _, v := range p.Value.Data {
		if math.Abs(v) > 0.11 {
			t.Fatalf("clipped update too large: %g", v)
		}
	}
}

func TestAdamZeroGradNoChangeAfterStepReset(t *testing.T) {
	p := &Param{Name: "p", Value: tensor.FromSlice(1, 1, []float64{1})}
	adam := NewAdam([]*Param{p}, 0.1)
	adam.Accumulate(p, tensor.FromSlice(1, 1, []float64{1}))
	adam.ZeroGrads()
	if adam.GradNorm() != 0 {
		t.Fatal("ZeroGrads must clear buffers")
	}
}

func TestAdamAccumulateUnknownParamPanics(t *testing.T) {
	adam := NewAdam(nil, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	adam.Accumulate(&Param{Name: "ghost", Value: tensor.New(1, 1)}, tensor.New(1, 1))
}

func TestEvalCtxTracksNoGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLinear("l", 2, 2, rng)
	tape := tensor.NewTape()
	c := NewEvalCtx(tape)
	if c.sink != nil {
		t.Fatal("eval ctx should not be training")
	}
	x := tape.Var(tensor.Randn(3, 2, 1, rng))
	y := l.Apply(c, x)
	tape.Backward(tape.SumAll(y))
	// x gets gradients, parameters don't (they were recorded as consts).
	if x.Grad == nil {
		t.Fatal("input grad missing")
	}
	c.Flush() // must be a no-op, not panic
}

func TestCtxFlushAccumulatesSharedParam(t *testing.T) {
	// A parameter used twice must receive the sum of both gradient paths.
	p := &Param{Name: "w", Value: tensor.FromSlice(1, 1, []float64{2})}
	adam := NewAdam([]*Param{p}, 0.1)
	tape := tensor.NewTape()
	c := NewTrainCtx(tape, adam)
	a := c.Var(p)
	b := c.Var(p)
	loss := tape.SumAll(tape.Mul(a, b)) // d/dw (w²) = 2w = 4
	tape.Backward(loss)
	c.Flush()
	if got := adam.GradNorm(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("accumulated grad = %g, want 4", got)
	}
}

// orderSink records the gradients it receives, per parameter, in arrival
// order.
type orderSink map[*Param][]float64

func (s orderSink) Accumulate(p *Param, g *tensor.Matrix) { s[p] = append(s[p], g.Data[0]) }

func TestFlushOrdered(t *testing.T) {
	shared := &Param{Name: "chain.w", Value: tensor.FromSlice(1, 1, []float64{2})}
	step := &Param{Name: "branch.w", Value: tensor.FromSlice(1, 1, []float64{3})}
	// record builds loss = k·Σ params on its own tape and sweeps it, so
	// every captured gradient equals k.
	record := func(sink GradSink, k float64, ps ...*Param) *Ctx {
		tape := tensor.NewTape()
		c := NewSinkCtx(tape, sink)
		acc := c.Var(ps[0])
		for _, p := range ps[1:] {
			acc = tape.Add(acc, c.Var(p))
		}
		tape.Backward(tape.Scale(acc, k))
		return c
	}

	t.Run("rest-in-order", func(t *testing.T) {
		sink := orderSink{}
		main := record(sink, 1, shared)
		FlushOrdered(main, []*Ctx{record(sink, 10, step), record(sink, 20, step), record(sink, 30, step)})
		if got := sink[step]; len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
			t.Fatalf("per-step gradients arrived as %v, want [10 20 30]", got)
		}
		if got := sink[shared]; len(got) != 1 || got[0] != 1 {
			t.Fatalf("main gradients %v, want [1]", got)
		}
	})

	t.Run("shared-param-panics", func(t *testing.T) {
		sink := orderSink{}
		main := record(sink, 1, shared)
		rest := []*Ctx{record(sink, 10, step), record(sink, 20, step, shared)}
		defer func() {
			r := recover()
			msg, _ := r.(string)
			if !strings.Contains(msg, "chain.w") {
				t.Fatalf("panic %v does not name the shared parameter", r)
			}
			if len(sink) != 0 {
				t.Fatalf("FlushOrdered flushed %d parameters before panicking", len(sink))
			}
		}()
		FlushOrdered(main, rest)
	})
}

func TestCollectParamsFlattens(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := NewLinear("a", 2, 2, rng)
	b := NewGRUCell("b", 2, 2, rng)
	got := CollectParams(a, b)
	if len(got) != 2+9 {
		t.Fatalf("CollectParams returned %d tensors", len(got))
	}
}
