package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// pairwiseMixBernoulli is Eq. 11 evaluated the plain way, both MLPs run on
// the E×(d_z+d_h) matrix of differences s_i − s_j: the reference
// mixBernoulliProb is held against.
func pairwiseMixBernoulli(m *Model, c *nn.Ctx, s *tensor.Node, src, dst []int, n int) *tensor.Node {
	tape := c.Tape
	diff := tape.Sub(tape.GatherRows(s, src), tape.GatherRows(s, dst))
	theta := tape.Sigmoid(m.fTheta.Apply(c, diff))
	alphaLogits := tape.ScatterAddRows(m.fAlpha.Apply(c, diff), src, n)
	alpha := tape.SoftmaxRows(alphaLogits)
	return tape.SumRows(tape.Mul(tape.GatherRows(alpha, src), theta))
}

// gradRecorder is a GradSink that keeps each parameter's summed gradient.
type gradRecorder map[*nn.Param]*tensor.Matrix

func (r gradRecorder) Accumulate(p *nn.Param, g *tensor.Matrix) {
	if r[p] == nil {
		r[p] = tensor.New(g.Rows, g.Cols)
	}
	r[p].AddInPlace(g)
}

// TestMixBernoulliMatchesPairwiseMLP holds the hoisted, transposed taped
// Eq. 11 against the pairwise formulation on the same inputs: the pair
// probabilities and the structure loss's gradients on S and on every
// parameter of both heads. Only the first layer's rounding may differ.
func TestMixBernoulliMatchesPairwiseMLP(t *testing.T) {
	cases := []struct {
		name     string
		n, edges int
		zeroH    bool // t=0: the H half of every difference is exactly 0
		wantE    int  // pair count to expect, ±10 % (negatives are rejection-sampled); 0: any
	}{
		{name: "zero H", n: 12, edges: 20, zeroH: true},
		{name: "no edges", n: 12, edges: 0},
		{name: "N=94 E≈590", n: 94, edges: 120, wantE: 590},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n*100 + tc.edges)))
			cfg := DefaultConfig(tc.n, 0)
			cfg.Seed = 3
			m := New(cfg)
			heads := []*nn.MLP{m.fTheta, m.fAlpha}
			// A fresh model's biases are zero; both forms must carry them.
			for _, mlp := range heads {
				for _, l := range mlp.Layers {
					for i := range l.B.Value.Data {
						l.B.Value.Data[i] = rng.NormFloat64()
					}
				}
			}
			sVal := tensor.Randn(tc.n, cfg.LatentDim+cfg.HiddenDim, 1, rng)
			if tc.zeroH {
				for i := 0; i < tc.n; i++ {
					clear(sVal.Row(i)[cfg.LatentDim:])
				}
			}
			snap := dyngraph.NewSnapshot(tc.n, 0)
			for snap.NumEdges() < tc.edges {
				snap.AddEdge(rng.Intn(tc.n), rng.Intn(tc.n))
			}
			esrc, edst := snap.EdgeLists()
			src, dst, targets := m.samplePairs(snap, esrc, edst, nil, nil, rng)
			defer tensor.Put(targets)
			if e := len(src); e == 0 || (tc.wantE > 0 && math.Abs(float64(e-tc.wantE)) > 0.1*float64(tc.wantE)) {
				t.Fatalf("%d pairs sampled, want about %d", e, tc.wantE)
			}

			type result struct {
				p, sGrad *tensor.Matrix
				grads    gradRecorder
			}
			run := func(f func(c *nn.Ctx, s *tensor.Node) *tensor.Node) result {
				tape := tensor.NewTape()
				grads := gradRecorder{}
				c := nn.NewSinkCtx(tape, grads)
				s := tape.Var(sVal)
				p := f(c, s)
				tape.Keep(p) // read after Backward
				tape.Backward(tape.BCEProb(p, targets))
				c.Flush()
				return result{p: p.Value.Clone(), sGrad: s.Grad.Clone(), grads: grads}
			}
			want := run(func(c *nn.Ctx, s *tensor.Node) *tensor.Node {
				return pairwiseMixBernoulli(m, c, s, src, dst, tc.n)
			})
			got := run(func(c *nn.Ctx, s *tensor.Node) *tensor.Node {
				return m.mixBernoulliProb(c, s, src, dst, tc.n)
			})

			near := func(what string, got, want *tensor.Matrix, tol float64) {
				t.Helper()
				if got == nil || want == nil || !got.SameShape(want) {
					t.Fatalf("%s: got %v, pairwise form gives %v", what, got, want)
				}
				for i, w := range want.Data {
					if math.Abs(got.Data[i]-w) > tol {
						t.Fatalf("%s[%d] = %v, pairwise form gives %v", what, i, got.Data[i], w)
					}
				}
			}
			near("p", got.p, want.p, 1e-12)
			near("dS", got.sGrad, want.sGrad, 1e-10)
			for _, mlp := range heads {
				for _, p := range mlp.Params() {
					near("d"+p.Name, got.grads[p], want.grads[p], 1e-10)
				}
			}
		})
	}
}

// TestFitBitIdenticalAcrossBackends trains the same seed under every
// compiled backend and compares the saved bytes. The suite's other
// bit-identity tests run under whichever backend is active; this one holds
// the backends against each other through a whole Fit.
func TestFitBitIdenticalAcrossBackends(t *testing.T) {
	active := tensor.ActiveBackend()
	defer func() {
		if err := tensor.SetBackend(active); err != nil {
			t.Fatal(err)
		}
	}()
	cfg := smallConfig(14, 2)
	cfg.Epochs = 2
	cfg.TBPTT = 4
	var refName string
	var refStats []TrainStats
	var refBytes []byte
	for _, name := range tensor.BackendNames() {
		if err := tensor.SetBackend(name); err != nil {
			t.Fatal(err)
		}
		stats, ckpt := fitStats(t, cfg)
		if refName == "" {
			refName, refStats, refBytes = name, stats, ckpt
			continue
		}
		for e := range stats {
			if stats[e] != refStats[e] {
				t.Fatalf("epoch %d: %s stats %+v differ from %s %+v", e, name, stats[e], refName, refStats[e])
			}
		}
		if !bytes.Equal(ckpt, refBytes) {
			t.Fatalf("Save bytes under %s differ from %s", name, refName)
		}
	}
}
