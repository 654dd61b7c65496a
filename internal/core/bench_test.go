package core

import (
	"testing"

	"vrdag/internal/datasets"
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
// Adam) on a small Email replica, once per tape-executor mode. The
// peak-live-B metric is the high-water mark of tape-owned buffer bytes;
// the sched/plain ratio is the lifetime pass's saving on the real
// training loop.
func BenchmarkFitEpoch(b *testing.B) {
	g, _, err := datasets.Replica(datasets.Email, 0.03, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		sched int
	}{{"sched", 1}, {"plain", -1}} {
		b.Run(v.name, func(b *testing.B) {
			cfg := DefaultConfig(g.N, g.F)
			cfg.Epochs = 1
			cfg.TapeSched = v.sched
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
// candidate set (the large-graph path) against exact decoding.
func BenchmarkGenerateCandidateCap(b *testing.B) {
	g, _, err := datasets.Replica(datasets.Email, 0.08, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{0, 32, 128} {
		cap := cap
		name := "exact"
		if cap > 0 {
			name = map[int]string{32: "cap32", 128: "cap128"}[cap]
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(g.N, g.F)
			cfg.Epochs = 1
			cfg.CandidateCap = cap
			m := New(cfg)
			if _, err := m.Fit(g); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.GenerateOpts(GenOptions{T: g.T(), Seed: int64(i), Parallel: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
