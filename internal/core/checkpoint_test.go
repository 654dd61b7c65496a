package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vrdag/internal/durable"
)

func saveBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// fitInterrupted trains with a checkpoint path, cancelling after
// stopAfter completed epochs, then resumes with a fresh model of the same
// config and returns its Save bytes.
func fitInterrupted(t *testing.T, cfg Config, stopAfter int) []byte {
	t.Helper()
	g := toyGraph(cfg.N, cfg.F, 6, 11)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	interrupted := New(cfg)
	_, err := interrupted.FitContext(ctx, g, WithProgress(func(TrainStats) {
		seen++
		if seen >= stopAfter {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Fit: err = %v, want context.Canceled", err)
	}
	if interrupted.Trained() {
		t.Fatal("interrupted model claims to be trained")
	}
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("no checkpoint on disk after interruption: %v", err)
	}

	resumed := New(cfg)
	if _, err := resumed.Fit(g); err != nil {
		t.Fatalf("resumed Fit: %v", err)
	}
	if !resumed.Trained() {
		t.Fatal("resumed model not trained")
	}
	if _, err := os.Stat(cfg.CheckpointPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not removed after completed Fit: %v", err)
	}
	return saveBytes(t, resumed)
}

// TestFitResumeBitIdentical is the training half of the PR's acceptance
// bar: a Fit interrupted at an epoch boundary and resumed from its crash
// checkpoint must produce Save bytes identical to an uninterrupted run,
// with and without the RNG-consuming neighbour sampling.
func TestFitResumeBitIdentical(t *testing.T) {
	base := smallConfig(16, 2)
	base.Epochs = 5
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"sequential", func(c *Config) {}},
		{"sequential/neighborSample", func(c *Config) { c.NeighborSample = 3; c.TBPTT = 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)

			plain := cfg
			uninterrupted := New(plain)
			if _, err := uninterrupted.Fit(toyGraph(cfg.N, cfg.F, 6, 11)); err != nil {
				t.Fatalf("uninterrupted Fit: %v", err)
			}
			want := saveBytes(t, uninterrupted)

			for stopAfter := 1; stopAfter < cfg.Epochs; stopAfter++ {
				ck := cfg
				ck.CheckpointPath = filepath.Join(t.TempDir(), "fit.ckpt")
				got := fitInterrupted(t, ck, stopAfter)
				if !bytes.Equal(got, want) {
					t.Fatalf("stopAfter=%d: resumed Save bytes differ from uninterrupted run", stopAfter)
				}
			}
		})
	}
}

// TestFitCheckpointEveryEpochs checks the cadence knob: with
// CheckpointEveryEpochs=2 a checkpoint exists only after even epochs.
func TestFitCheckpointEveryEpochs(t *testing.T) {
	cfg := smallConfig(12, 2)
	cfg.Epochs = 5
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "fit.ckpt")
	cfg.CheckpointEveryEpochs = 2
	g := toyGraph(cfg.N, cfg.F, 5, 13)

	var present []bool
	m := New(cfg)
	if _, err := m.Fit(g, WithProgress(func(TrainStats) {
		_, err := os.Stat(cfg.CheckpointPath)
		present = append(present, err == nil)
	})); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Epoch numbering is 1-based here: after epochs 1,3,5 no new file yet
	// (5 is the final epoch, never checkpointed); after 2,4 there is one.
	want := []bool{false, true, true, true, true}
	for i := range want {
		if present[i] != want[i] {
			t.Fatalf("checkpoint presence after epoch %d = %v, want %v (%v)", i+1, present[i], want[i], present)
		}
	}
}

// TestFitCheckpointRejectsForeignConfig ensures a checkpoint written for a
// different model configuration fails loudly instead of silently
// corrupting a run.
func TestFitCheckpointRejectsForeignConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fit.ckpt")

	cfgA := smallConfig(12, 2)
	cfgA.Epochs = 4
	cfgA.CheckpointPath = path
	g := toyGraph(12, 2, 5, 13)

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	mA := New(cfgA)
	_, err := mA.FitContext(ctx, g, WithProgress(func(TrainStats) {
		seen++
		if seen >= 1 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("setup fit: %v", err)
	}

	cfgB := cfgA
	cfgB.HiddenDim = 4 // different architecture, same path
	mB := New(cfgB)
	if _, err := mB.Fit(toyGraph(12, 2, 5, 13)); err == nil {
		t.Fatal("resume from a foreign-config checkpoint succeeded")
	}

	// Corrupt bytes fail loudly too.
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	mC := New(cfgA)
	if _, err := mC.Fit(g); err == nil {
		t.Fatal("resume from corrupt checkpoint bytes succeeded")
	}
}

// TestFitCheckpointWriteFaultSurfaces: a failed checkpoint write is a
// training error, not a silent skip — the caller must know durability was
// lost. The old target must survive the failed atomic replace.
func TestFitCheckpointWriteFaultSurfaces(t *testing.T) {
	cfg := smallConfig(12, 2)
	cfg.Epochs = 4
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "fit.ckpt")
	g := toyGraph(12, 2, 5, 13)

	old := fitFS
	defer func() { fitFS = old }()
	fitFS = durable.NewFaultFS(durable.OS, durable.Fault{WriteBudget: -1, FailWrites: 1})

	m := New(cfg)
	if _, err := m.Fit(g); !errors.Is(err, durable.ErrInjected) {
		t.Fatalf("Fit with failing checkpoint writes: err = %v, want injected", err)
	}
	if _, err := os.Stat(cfg.CheckpointPath); !os.IsNotExist(err) {
		t.Fatalf("failed atomic write left a target file: %v", err)
	}
}

// TestCountingSourceFastForward pins the cursor arithmetic the resume path
// depends on.
func TestCountingSourceFastForward(t *testing.T) {
	mk := func() *countingSource {
		return &countingSource{src: rand.NewSource(99).(rand.Source64)}
	}
	a := mk()
	for i := 0; i < 137; i++ {
		a.Uint64()
	}
	b := mk()
	if err := b.fastForward(a.n); err != nil {
		t.Fatalf("fastForward: %v", err)
	}
	for i := 0; i < 16; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverges after fast-forward: %d vs %d", i, av, bv)
		}
	}
	if err := b.fastForward(0); err == nil {
		t.Fatal("fastForward rewound the cursor")
	}
}
