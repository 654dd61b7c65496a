package core

import (
	"bytes"
	"testing"

	"vrdag/internal/tensor"
)

// usePlainTape switches training to tensor's plain record-order executor
// until the test (or sub-benchmark) ends. It flips a package variable, so
// callers must not run in parallel.
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
// scheduled tape executor on the trainer: per-epoch loss stats (including
// gradient norms) and post-Fit checkpoint bytes are bit-identical on the
// plain reference executor, on the scheduled one, and on the scheduled one
// with rematerialization segments of various lengths.
func TestTapeSchedBitIdentitySequential(t *testing.T) {
	base := smallConfig(14, 2)
	base.TBPTT = 2
	base.Epochs = 3
	base.NeighborSample = 3

	usePlainTape(t)
	refStats, refBytes := fitStats(t, base)
	plainTape = false // the variants below train on the scheduled executor

	variants := []struct {
		name      string
		ckptEvery int
	}{
		{"sched-on", 0},
		{"sched-on/ckpt-1", 1},
		{"sched-on/ckpt-2", 2},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			cfg.CheckpointEvery = v.ckptEvery
			stats, ckpt := fitStats(t, cfg)
			if len(stats) != len(refStats) {
				t.Fatalf("%d epochs, want %d", len(stats), len(refStats))
			}
			for e := range stats {
				if stats[e] != refStats[e] {
					t.Fatalf("epoch %d: stats %+v differ from plain-executor %+v", e, stats[e], refStats[e])
				}
			}
			if !bytes.Equal(ckpt, refBytes) {
				t.Fatal("checkpoint bytes differ from the plain-executor run")
			}
		})
	}
}

// TestTapeSchedPeakReduction asserts the point of the lifetime pass at the
// training level: the per-window peak of tape-owned bytes with scheduling
// on must be at most 60% of the plain executor's on a full-sequence
// window, and checkpointing must cut it further.
func TestTapeSchedPeakReduction(t *testing.T) {
	g := toyGraph(14, 2, 8, 41)
	run := func(ckptEvery int) int64 {
		cfg := smallConfig(14, 2)
		cfg.Epochs = 2
		cfg.CheckpointEvery = ckptEvery
		m := New(cfg)
		if _, err := m.Fit(g); err != nil {
			t.Fatal(err)
		}
		return m.TapePeakLiveBytes()
	}
	sched := run(0)
	ckpt := run(1)
	usePlainTape(t)
	plain := run(0)
	if sched > plain*6/10 {
		t.Fatalf("scheduled peak %d > 60%% of plain peak %d", sched, plain)
	}
	if ckpt >= sched {
		t.Fatalf("checkpointed peak %d not below scheduled peak %d", ckpt, sched)
	}
}

// TestTapeSchedCheckpointArenaBalance asserts a full Fit with
// rematerialization segments returns every pooled buffer: the arena's
// get/put delta across the run is exactly zero (dropped segment values
// must be re-tracked when rematerialized, then released exactly once).
func TestTapeSchedCheckpointArenaBalance(t *testing.T) {
	g := toyGraph(12, 2, 6, 59)
	cfg := smallConfig(12, 2)
	cfg.TBPTT = 3
	cfg.Epochs = 2
	cfg.CheckpointEvery = 1

	// Warm-up on a separate model so lazily built caches that outlive a
	// Fit (snapshot CSR/edge-list caches on g) don't skew the delta.
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
		t.Fatalf("checkpointed Fit leaked arena buffers: %d gets vs %d puts", gets, puts)
	}
}
