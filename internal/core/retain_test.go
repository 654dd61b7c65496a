package core

import (
	"runtime"
	"slices"
	"testing"

	"vrdag/internal/tensor"
)

// TestFitKeepsArena: a training run keeps its retention. A Fit of a shape
// the arena has trained before, with no inference between, finds every
// buffer it asks for on the free lists, and no Fit releases anything. The
// two goroutines of a window's task pool interleave differently from run
// to run, which can lift a bucket's peak a buffer or two over an earlier
// Fit's; so the test fits again, up to four times, until one Fit misses
// nothing. A Fit that dropped or released its retention would miss every
// time, or count releases.
func TestFitKeepsArena(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tbptt int
	}{{"full-bptt", 0}, {"tbptt-3", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			g := toyGraph(30, 2, 6, 23)
			cfg := smallConfig(30, 2)
			cfg.TBPTT = tc.tbptt
			cfg.Epochs = 2
			m := New(cfg)
			if _, err := m.Fit(g); err != nil {
				t.Fatal(err)
			}
			start := tensor.ReadPoolStats()
			var misses []int64
			for len(misses) < 4 && !slices.Contains(misses, 0) {
				before := tensor.ReadPoolStats()
				if _, err := m.Fit(g); err != nil {
					t.Fatal(err)
				}
				after := tensor.ReadPoolStats()
				misses = append(misses, (after.Gets-before.Gets)-(after.Hits-before.Hits))
			}
			if !slices.Contains(misses, 0) {
				t.Fatalf("every later Fit missed the arena: %v misses", misses)
			}
			if n := tensor.ReadPoolStats().Releases - start.Releases; n != 0 {
				t.Fatalf("%d buffers released across %d Fits", n, len(misses))
			}
		})
	}
}

// TestInferenceReleasesFitArena: the first generation after a Fit hands
// what training kept back to the OS, so once it returns no more bytes sit
// resident on the free lists than the generation drew itself. That is,
// bucket by bucket, the most buffers of the bucket it had checked out at
// once. Its phases hand buffers back mid-step (Tape.ReleaseSince), so
// buckets peak at different times and their peaks add up to more than the
// arena's global one; the test measures their sum by replay instead: after
// a ReleaseFree, the same generation again draws that many bytes from the
// released lists, and the attribute buffers of the snapshots it returns
// besides. A second generation releases nothing more.
func TestInferenceReleasesFitArena(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the arena releases pages on Linux only")
	}
	g := toyGraph(60, 2, 6, 29)
	cfg := smallConfig(60, 2)
	cfg.Epochs = 2
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	opts := GenOptions{T: 4, Seed: 3, Parallel: true}
	fit := tensor.ReadPoolStats()
	if _, err := m.GenerateOpts(opts); err != nil {
		t.Fatal(err)
	}
	gen := tensor.ReadPoolStats()
	if _, err := m.GenerateOpts(GenOptions{T: 4, Seed: 4, Parallel: true}); err != nil {
		t.Fatal(err)
	}
	second := tensor.ReadPoolStats()

	tensor.ReleaseFree()
	replay := tensor.ReadPoolStats()
	if _, err := m.GenerateOpts(opts); err != nil {
		t.Fatal(err)
	}
	resident, drawn := gen.RetainedBytes-gen.ReleasedBytes, replay.ReleasedBytes-tensor.ReadPoolStats().ReleasedBytes
	t.Logf("%d bytes resident after generation; its replay drew %d", resident, drawn)
	if resident > drawn {
		t.Fatalf("%d resident retained bytes after generation, more than the %d bytes its replay draws", resident, drawn)
	}
	if gen.Releases == fit.Releases {
		t.Fatal("the first generation after Fit released nothing")
	}
	if n := second.Releases - gen.Releases; n != 0 {
		t.Fatalf("a second generation released %d buffers", n)
	}
}

// TestFitAfterInferenceReusesReleased: a Fit that follows inference draws
// the buffers the inference released and trains to the very bits
// TestFitTrainedBitsPinned pins for its full-BPTT case.
func TestFitAfterInferenceReusesReleased(t *testing.T) {
	if !slices.Contains(tensor.CPUFeatures(), "fma") {
		t.Skip("digests were taken with the FMA exp path")
	}
	cfg := DefaultConfig(94, 3)
	cfg.Epochs = 3
	cfg.Seed = 71
	m := New(cfg)
	if _, err := m.Fit(toyGraph(cfg.N, 3, 8, 71)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GenerateOpts(GenOptions{T: 2, Seed: 1, Parallel: true}); err != nil {
		t.Fatal(err)
	}
	before := tensor.ReadPoolStats()
	if runtime.GOOS == "linux" && before.ReleasedBytes == 0 {
		t.Fatal("nothing on the released lists after inference")
	}
	const want = "07a3fb80fd3457fde9b12e070465201d5f314861f6e47ab7eb5f1cd5e1aa1f5e"
	if got := trainedDigest(t, cfg, 3); got != want {
		t.Fatalf("trained digest after a release %s, want %s", got, want)
	}
	if after := tensor.ReadPoolStats(); runtime.GOOS == "linux" && after.ReleasedBytes >= before.ReleasedBytes {
		t.Fatalf("released bytes %d → %d across the Fit, want released buffers reused", before.ReleasedBytes, after.ReleasedBytes)
	}
}
