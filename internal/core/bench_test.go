package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// benchModel fits a small model once for the generation benchmarks.
func benchModel(b *testing.B, scale float64) (*Model, int) {
	b.Helper()
	g, _, err := datasets.Replica(datasets.Email, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(g.N, g.F)
	cfg.Epochs = 2
	cfg.Seed = 1
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		b.Fatal(err)
	}
	return m, g.T()
}

// BenchmarkFitEpoch measures one ELBO training epoch (forward + BPTT +
// Adam) on a small Email replica, once on the default tape training uses
// and once on the reference tape. The peak-live-B metric is the high-water
// mark of tape-owned buffer bytes; the sched/plain ratio is lifetime
// release's saving on the real training loop.
func BenchmarkFitEpoch(b *testing.B) {
	g, _, err := datasets.Replica(datasets.Email, 0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		plain bool
	}{{"sched", false}, {"plain", true}} {
		b.Run(v.name, func(b *testing.B) {
			if v.plain {
				usePlainTape(b)
			}
			cfg := DefaultConfig(g.N, g.F)
			cfg.Epochs = 1
			m := New(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Fit(g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.TapePeakLiveBytes()), "peak-live-B")
		})
	}
}

// BenchmarkFitEpochTBPTT runs one windowed training epoch per iteration
// (TBPTT=2: one optimizer step per two-snapshot window).
func BenchmarkFitEpochTBPTT(b *testing.B) {
	g, _, err := datasets.Replica(datasets.Email, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(g.N, g.F)
	cfg.Epochs = 1
	cfg.TBPTT = 2
	m := New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Fit(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures full-sequence one-shot generation
// (Algorithm 1) including attribute decoding and recurrence updates.
func BenchmarkGenerate(b *testing.B) {
	m, t := benchModel(b, 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GenerateOpts(GenOptions{T: t, Seed: int64(i), Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSerial measures the same decode without goroutine
// fan-out (the ablation for the Parallel option).
func BenchmarkGenerateSerial(b *testing.B) {
	m, t := benchModel(b, 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.GenerateOpts(GenOptions{T: t, Seed: int64(i), Parallel: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateCandidateCap measures decoding with a bounded
// candidate set (the large-graph path) against exact decoding at N=151,
// and at the shape of the bench's gen_offline secondary op.
func BenchmarkGenerateCandidateCap(b *testing.B) {
	for _, c := range []struct {
		name   string
		scale  float64
		cap, t int // t = 0: as many snapshots as the replica has
	}{
		{"exact", 0.08, 0, 0},
		{"cap32", 0.08, 32, 0},
		{"cap128", 0.08, 128, 0},
		{"email1.0_cap128_T8", 1.0, 128, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.scale == 1.0 && testing.Short() {
				b.Skip("N=1891: one training epoch of set-up")
			}
			g, _, err := datasets.Replica(datasets.Email, c.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			t := c.t
			if t == 0 {
				t = g.T()
			}
			cfg := DefaultConfig(g.N, g.F)
			cfg.Epochs = 1
			cfg.CandidateCap = c.cap
			m := New(cfg)
			if _, err := m.Fit(g); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.GenerateOpts(GenOptions{T: t, Seed: int64(i), Parallel: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCandidates measures one timestep's candidate build of capped
// decoding — every node's set, on one goroutine, cap 128 — at the bench's
// large N and at N=151, where the cap is most of the graph and the draws
// are rejection-bound. An untrained model and a Zipf-like running degree
// stand in for a fitted one: the builder sees only the prefix sums.
// ns/draw includes rand.Float64, the lookup and the dedupe.
func BenchmarkCandidates(b *testing.B) {
	for _, n := range []int{1891, 151} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := DefaultConfig(n, 0)
			m := New(cfg)
			st := m.newGenState(GenOptions{T: 1, Seed: 1}, false, nil)
			defer st.release()
			for v := range st.degree {
				st.degree[v] = 10 / float64(1+v)
			}
			// One real decode fills the prefix sums, the guide and the seeds.
			s := tensor.Randn(n, cfg.LatentDim+cfg.HiddenDim, 1, rand.New(rand.NewSource(1)))
			st.decodeStructure(dyngraph.NewSnapshot(n, 0), s, 0)
			ps, w := st.ps, st.ps.workers[0]

			// The draws a timestep takes, counted once outside the timer.
			counted := &countingSource{src: new(splitmixSource)}
			crng, draws, accepted := rand.New(counted), 0, 0
			for i := 0; i < n; i++ {
				counted.Seed(st.seeds[i])
				accepted += len(candidates(ps.cands[i*ps.stride:][:0:ps.stride], i, nil, st.cdf, crng, w.mark))
				draws += int(counted.n)
			}

			for b.Loop() {
				for i := 0; i < n; i++ {
					w.nsrc.Seed(st.seeds[i])
					candidates(ps.cands[i*ps.stride:][:0:ps.stride], i, nil, st.cdf, w.nrng, w.mark)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
			b.ReportMetric(float64(draws)/float64(accepted), "draws/accepted")
		})
	}
}
