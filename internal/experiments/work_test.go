package experiments

import (
	"testing"

	"vrdag/internal/core"
	"vrdag/internal/dyngraph"
)

// TestVRDAGWorkRule checks vrdagWork on a four-node model against its rule
// written out by hand, with the default d_h = 16, K = 2, L = 2 and
// NegSamples Q = 5.
func TestVRDAGWorkRule(t *testing.T) {
	train := dyngraph.NewSequence(4, 0, 2) // nnz 2, then 3
	train.At(0).AddEdge(0, 1)
	train.At(0).AddEdge(1, 2)
	train.At(1).AddEdge(2, 3)
	train.At(1).AddEdge(3, 0)
	train.At(1).AddEdge(0, 2)
	synth := dyngraph.NewSequence(4, 0, 3) // nnz 1, 0, 4
	synth.At(0).AddEdge(1, 0)
	for v := 0; v < 4; v++ {
		synth.At(2).AddEdge(v, (v+1)%4)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
		// per generated step: pairs·d_h·(K+1) = pairs·48; per edge: d_h·spmms
		pairs, spmms int64
	}{
		// Exact decoding: N−1 = 3 pairs per node; bi-flow: 2·L SpMMs.
		{"exact bi-flow", func(*core.Config) {}, 4 * 3, 4},
		// CandidateCap 2 < N−1: 2 pairs per node; one flow: L SpMMs.
		{"capped one flow", func(c *core.Config) { c.CandidateCap, c.BiFlow = 2, false }, 4 * 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig(4, 0)
			cfg.Epochs = 2
			tc.mutate(&cfg)
			m := core.New(cfg)
			np := int64(4 * m.NumParams()) // N·NumParams() per step
			// Three generated steps, 1 + 0 + 4 = 5 edges.
			wantGen := 3*np + 3*tc.pairs*48 + 5*16*tc.spmms
			// Two training steps, 2 + 3 = 5 edges plus Q·N = 20 negatives
			// each, three forwards per step per epoch.
			wantFit := 3 * 2 * (2*np + (5+2*20)*48 + 5*16*tc.spmms)
			fit, gen := vrdagWork(m, train, synth)
			if fit != wantFit || gen != wantGen {
				t.Fatalf("vrdagWork = (%d, %d), want (%d, %d)", fit, gen, wantFit, wantGen)
			}
		})
	}
}
