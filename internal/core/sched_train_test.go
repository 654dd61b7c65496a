package core

import (
	"bytes"
	"testing"

	"vrdag/internal/datasets"
	"vrdag/internal/tensor"
)

// usePlainTape switches training to tensor's reference tape (no release
// before Reset) for models created until the test (or sub-benchmark) ends.
// It flips a package variable, so callers must not run in parallel.
func usePlainTape(tb testing.TB) {
	tb.Helper()
	plainTape = true
	tb.Cleanup(func() { plainTape = false })
}

// fitStats trains a fresh model and returns every epoch's stats plus the
// serialized checkpoint bytes.
func fitStats(t *testing.T, cfg Config) ([]TrainStats, []byte) {
	t.Helper()
	seq := toyGraph(cfg.N, cfg.F, 8, 41)
	m := New(cfg)
	var all []TrainStats
	if _, err := m.Fit(seq, WithProgress(func(s TrainStats) { all = append(all, s) })); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return all, buf.Bytes()
}

// TestTapeSchedBitIdentitySequential pins the end-to-end contract of the
// tape's lifetime release on the trainer: per-epoch loss stats (including
// gradient norms) and post-Fit checkpoint bytes are bit-identical on the
// reference tape and on the default one.
func TestTapeSchedBitIdentitySequential(t *testing.T) {
	base := smallConfig(14, 2)
	base.TBPTT = 2
	base.Epochs = 3
	base.NeighborSample = 3

	usePlainTape(t)
	refStats, refBytes := fitStats(t, base)
	plainTape = false // the subtest trains on the default tape

	t.Run("sched-on", func(t *testing.T) {
		stats, ckpt := fitStats(t, base)
		if len(stats) != len(refStats) {
			t.Fatalf("%d epochs, want %d", len(stats), len(refStats))
		}
		for e := range stats {
			if stats[e] != refStats[e] {
				t.Fatalf("epoch %d: stats %+v differ from reference-tape %+v", e, stats[e], refStats[e])
			}
		}
		if !bytes.Equal(ckpt, refBytes) {
			t.Fatal("checkpoint bytes differ from the reference-tape run")
		}
	})
}

// TestTapeSchedPeakReduction asserts the point of lifetime release at the
// training level: the per-window peak of tape-owned bytes on the default
// tape must be at most 60% of the reference tape's on a full-sequence
// window.
func TestTapeSchedPeakReduction(t *testing.T) {
	g := toyGraph(14, 2, 8, 41)
	run := func() int64 {
		cfg := smallConfig(14, 2)
		cfg.Epochs = 2
		m := New(cfg)
		if _, err := m.Fit(g); err != nil {
			t.Fatal(err)
		}
		return m.TapePeakLiveBytes()
	}
	sched := run()
	usePlainTape(t)
	plain := run()
	if sched > plain*6/10 {
		t.Fatalf("default-tape peak %d > 60%% of reference-tape peak %d", sched, plain)
	}
}

// TestFitTapePeakBound bounds the training tapes' peak on the email
// replica (seed 5) in two settings: ×0.05 (N=94, T=14) as one
// full-sequence window for 8 epochs, and ×0.5 (N=945) in TBPTT=4 windows
// for 2 epochs, train's secondary op. The peak counts buffer sizes only,
// so it repeats exactly on every backend and GOMAXPROCS. Both bounds are
// the peaks with the Eq. 12 attention as one Tape.GAT node; with its nine
// ops, whose gathered E×d_h rows and gradients the tape held, they read
// 8 224 152 and 25 386 288 bytes. Either chain put back, or a linear layer
// copying its concatenated inputs again (Tape.AffineSum), fails here.
func TestFitTapePeakBound(t *testing.T) {
	for _, tc := range []struct {
		name          string
		scale         float64
		epochs, tbptt int
		bound         int64
	}{
		{"x0.05", 0.05, 8, 0, 6935440},
		{"x0.5-tbptt4", 0.5, 2, 4, 19608368},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _, err := datasets.Replica(datasets.Email, tc.scale, 5)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(g.N, g.F)
			cfg.Epochs = tc.epochs
			cfg.TBPTT = tc.tbptt
			cfg.Seed = 5
			m := New(cfg)
			if _, err := m.Fit(g); err != nil {
				t.Fatal(err)
			}
			if got := m.TapePeakLiveBytes(); got > tc.bound {
				t.Fatalf("training tapes peaked at %d bytes, bound %d", got, tc.bound)
			}
		})
	}
}

// TestGenerateArenaPeakBound bounds the arena's high-water mark above
// what was already checked out during one warm generation: email ×1.0
// (N=1891) fitted for one epoch with CandidateCap 128, as gen_offline's
// secondary model, decoding T=2. It reads 2 097 152 bytes with the
// Eq. 12 attention as one Tape.GAT node and 3 244 032 with the chain of
// nine ops it replaced, whose E×d_h blocks were the step's largest
// buffers.
func TestGenerateArenaPeakBound(t *testing.T) {
	g, _, err := datasets.Replica(datasets.Email, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(g.N, g.F)
	cfg.Epochs = 1
	cfg.CandidateCap = 128
	cfg.Seed = 5
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	opts := GenOptions{T: 2, Seed: 9, Parallel: true}
	if _, err := m.GenerateOpts(opts); err != nil { // warm: the first request releases the fit's arena
		t.Fatal(err)
	}
	live := tensor.ReadPoolStats().LiveBytes
	tensor.ResetPoolPeakLive()
	if _, err := m.GenerateOpts(opts); err != nil {
		t.Fatal(err)
	}
	const bound = 2097152
	if got := tensor.ReadPoolStats().PeakLiveBytes - live; got > bound {
		t.Fatalf("a warm generation peaked %d bytes above the %d already live, bound %d", got, live, bound)
	}
}

// TestFitArenaBalance asserts a full Fit on the tape that ships returns
// every pooled buffer: the arena's get/put delta across the run is exactly
// zero, whether Backward sweeps one full-sequence window or several
// truncated ones (values released mid-sweep, the kept loss terms and the
// carried hidden state at Reset, Var gradients in Flush — each exactly
// once).
func TestFitArenaBalance(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tbptt int
	}{{"full-bptt", 0}, {"tbptt-3", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			g := toyGraph(12, 2, 6, 59)
			cfg := smallConfig(12, 2)
			cfg.TBPTT = tc.tbptt
			cfg.Epochs = 2

			// Warm-up on a separate model so lazily built caches that
			// outlive a Fit (snapshot CSR/edge-list caches on g) don't skew
			// the delta.
			if _, err := New(cfg).Fit(g); err != nil {
				t.Fatal(err)
			}

			m := New(cfg)
			before := tensor.ReadPoolStats()
			if _, err := m.Fit(g); err != nil {
				t.Fatal(err)
			}
			after := tensor.ReadPoolStats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("Fit leaked arena buffers: %d gets vs %d puts", gets, puts)
			}
		})
	}
}
