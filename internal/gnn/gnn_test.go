package gnn

import (
	"math"
	"math/rand"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

func lineGraph(n, f int) *dyngraph.Snapshot {
	s := dyngraph.NewSnapshot(n, f)
	for i := 0; i+1 < n; i++ {
		s.AddEdge(i, i+1)
	}
	return s
}

func defaultCfg(f int) BiFlowConfig {
	return BiFlowConfig{InDim: f, Hidden: 8, OutDim: 6, Layers: 2, MLPLayers: 1, BiFlow: true}
}

func TestEncoderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	enc := NewBiFlowEncoder("enc", defaultCfg(3), rng)
	s := lineGraph(5, 3)
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	out := enc.Encode(c, s)
	if out.Value.Rows != 5 || out.Value.Cols != 6 {
		t.Fatalf("encoder output %dx%d", out.Value.Rows, out.Value.Cols)
	}
}

func TestEncoderHandlesUnattributedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := NewBiFlowEncoder("enc", defaultCfg(0), rng)
	s := lineGraph(4, 0)
	tape := tensor.NewTape()
	out := enc.Encode(nn.NewEvalCtx(tape), s)
	if out.Value.Rows != 4 {
		t.Fatal("unattributed encode failed")
	}
}

func TestEncoderDirectionSensitivity(t *testing.T) {
	// A bi-flow encoder must distinguish a node's representation when all
	// its edges flip direction; an undirected (ablation) encoder must not.
	rng := rand.New(rand.NewSource(3))
	cfg := defaultCfg(0)
	enc := NewBiFlowEncoder("enc", cfg, rng)

	fwd := dyngraph.NewSnapshot(3, 0)
	fwd.AddEdge(0, 1)
	fwd.AddEdge(0, 2)
	rev := dyngraph.NewSnapshot(3, 0)
	rev.AddEdge(1, 0)
	rev.AddEdge(2, 0)

	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	a := enc.Encode(c, fwd)
	b := enc.Encode(c, rev)
	diff := 0.0
	for j := 0; j < a.Value.Cols; j++ {
		diff += math.Abs(a.Value.At(0, j) - b.Value.At(0, j))
	}
	if diff < 1e-6 {
		t.Fatal("bi-flow encoder must be direction-sensitive")
	}

	cfgU := cfg
	cfgU.BiFlow = false
	rngU := rand.New(rand.NewSource(3))
	encU := NewBiFlowEncoder("enc", cfgU, rngU)
	au := encU.Encode(c, fwd)
	bu := encU.Encode(c, rev)
	for j := 0; j < au.Value.Cols; j++ {
		if math.Abs(au.Value.At(0, j)-bu.Value.At(0, j)) > 1e-9 {
			t.Fatal("undirected ablation must be direction-insensitive")
		}
	}
}

func TestEncoderPermutationEquivariance(t *testing.T) {
	// Relabelling nodes must permute rows of the encoding identically.
	rng := rand.New(rand.NewSource(4))
	enc := NewBiFlowEncoder("enc", defaultCfg(2), rng)
	n := 6
	s := dyngraph.NewSnapshot(n, 2)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}}
	for _, e := range edges {
		s.AddEdge(e[0], e[1])
	}
	attrRng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		s.X.Set(i, 0, attrRng.NormFloat64())
		s.X.Set(i, 1, attrRng.NormFloat64())
	}
	perm := []int{3, 0, 5, 1, 4, 2} // node i -> perm[i]
	sp := dyngraph.NewSnapshot(n, 2)
	for _, e := range edges {
		sp.AddEdge(perm[e[0]], perm[e[1]])
	}
	for i := 0; i < n; i++ {
		sp.X.Set(perm[i], 0, s.X.At(i, 0))
		sp.X.Set(perm[i], 1, s.X.At(i, 1))
	}
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	a := enc.Encode(c, s)
	b := enc.Encode(c, sp)
	for i := 0; i < n; i++ {
		for j := 0; j < a.Value.Cols; j++ {
			if math.Abs(a.Value.At(i, j)-b.Value.At(perm[i], j)) > 1e-9 {
				t.Fatalf("equivariance broken at node %d dim %d", i, j)
			}
		}
	}
}

func TestEncoderGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	enc := NewBiFlowEncoder("enc", defaultCfg(2), rng)
	s := lineGraph(5, 2)
	for i := 0; i < 5; i++ {
		s.X.Set(i, 0, float64(i))
	}
	adam := nn.NewAdam(enc.Params(), 0.01)
	tape := tensor.NewTape()
	c := nn.NewTrainCtx(tape, adam)
	out := enc.Encode(c, s)
	loss := tape.MeanAll(tape.Mul(out, out))
	tape.Backward(loss)
	c.Flush()
	if adam.GradNorm() == 0 {
		t.Fatal("no gradient reached encoder parameters")
	}
	adam.Step()
}

func TestEncoderParamsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	enc := NewBiFlowEncoder("enc", defaultCfg(2), rng)
	// inProj(2) + 2 layers × (fin(2) + fout(2) + 2 eps) + fagg(2) + fpool(2)
	want := 2 + 2*(2+2+2) + 2 + 2
	if got := len(enc.Params()); got != want {
		t.Fatalf("Params len = %d, want %d", got, want)
	}
}

func TestGATShapesAndSelfLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := NewGAT("gat", 4, 3, rng)
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	states := tape.Const(tensor.Randn(5, 4, 1, rng))
	// no edges at all: self-loops must still produce nonzero output
	out := g.Apply(c, states, nil, nil, 5)
	if out.Value.Rows != 5 || out.Value.Cols != 3 {
		t.Fatalf("GAT output %dx%d", out.Value.Rows, out.Value.Cols)
	}
	nonzero := false
	for _, v := range out.Value.Data {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("GAT with self-loops must produce nonzero states")
	}
}

func TestGATAttentionNormalised(t *testing.T) {
	// With identical source states, attention-weighted output equals the
	// transformed state itself (weights sum to one).
	rng := rand.New(rand.NewSource(9))
	g := NewGAT("gat", 2, 2, rng)
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	st := tensor.New(4, 2)
	for i := 0; i < 4; i++ {
		st.Set(i, 0, 1)
		st.Set(i, 1, -1)
	}
	states := tape.Const(st)
	src := []int{1, 2, 3}
	dst := []int{0, 0, 0}
	out := g.Apply(c, states, src, dst, 4)
	// Node 0 aggregates {1,2,3,self}, all with the same W·h: output = W·h.
	wh := tensor.MatMul(st, g.W.W.Value)
	for j := 0; j < 2; j++ {
		if math.Abs(out.Value.At(0, j)-(wh.At(0, j)+g.W.B.Value.Data[j])) > 1e-9 {
			t.Fatalf("attention over identical states should average to the state, got %v", out.Value.Row(0))
		}
	}
}

func TestGATGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewGAT("gat", 3, 3, rng)
	adam := nn.NewAdam(g.Params(), 0.01)
	tape := tensor.NewTape()
	c := nn.NewTrainCtx(tape, adam)
	states := tape.Var(tensor.Randn(4, 3, 1, rng))
	out := g.Apply(c, states, []int{0, 1}, []int{1, 2}, 4)
	tape.Backward(tape.MeanAll(tape.Mul(out, out)))
	c.Flush()
	if adam.GradNorm() == 0 {
		t.Fatal("no gradient reached GAT parameters")
	}
	if states.Grad == nil {
		t.Fatal("no gradient reached input states")
	}
}

// The probe entry points (EncodeValue, MLP.Forward, GRUCell.Forward) must
// return the bits of the taped layer they wrap, copied out of their tape.

func TestEncodeValueMatchesTapedEncode(t *testing.T) {
	for _, biflow := range []bool{true, false} {
		rng := rand.New(rand.NewSource(11))
		cfg := BiFlowConfig{InDim: 2, Hidden: 6, OutDim: 4, Layers: 2, MLPLayers: 2, BiFlow: biflow}
		enc := NewBiFlowEncoder("enc", cfg, rng)
		s := dyngraph.NewSnapshot(7, 2)
		g := rand.New(rand.NewSource(12))
		for e := 0; e < 12; e++ {
			s.AddEdge(g.Intn(7), g.Intn(7))
		}
		for i := 0; i < 7; i++ {
			s.X.Set(i, 0, g.NormFloat64())
			s.X.Set(i, 1, g.NormFloat64())
		}
		tape := tensor.NewTape()
		taped := enc.Encode(nn.NewEvalCtx(tape), s)
		if !taped.Value.Equal(enc.EncodeValue(s), 0) {
			t.Fatalf("biflow=%v: EncodeValue diverges from taped Encode", biflow)
		}
	}
}

func TestMLPForwardMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := nn.NewMLP("m", []int{3, 6, 2}, tensor.ActLeakyReLU, rng)
	m.OutAct = tensor.ActSigmoid
	x := tensor.Randn(4, 3, 1, rng)
	tape := tensor.NewTape()
	taped := m.Apply(nn.NewEvalCtx(tape), tape.Const(x))
	if !taped.Value.Equal(m.Forward(x), 0) {
		t.Fatal("MLP Forward diverges")
	}
}

func TestGRUForwardMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := nn.NewGRUCell("g", 4, 3, rng)
	x := tensor.Randn(5, 4, 1, rng)
	h := tensor.Randn(5, 3, 1, rng)
	tape := tensor.NewTape()
	c := nn.NewEvalCtx(tape)
	taped := g.Step(c, tape.Const(x), tape.Const(h))
	if !taped.Value.Equal(g.Forward(x, h), 0) {
		t.Fatal("GRU Forward diverges from Step")
	}
}
