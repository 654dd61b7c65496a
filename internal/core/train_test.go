package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vrdag/internal/datasets"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// trainedDigest fits a fresh model on g and returns the sha256 of every
// epoch's TrainStats float bits followed by the trained state by value.
func trainedDigest(t *testing.T, cfg Config, f int) string {
	t.Helper()
	g := toyGraph(cfg.N, f, 8, 71)
	h := sha256.New()
	m := New(cfg)
	if _, err := m.Fit(g, WithProgress(func(s TrainStats) {
		hashFloats(h, s.Loss, s.StrucLoss, s.AttrLoss, s.KLLoss, s.GradNorm)
	})); err != nil {
		t.Fatal(err)
	}
	if err := hashState(h, m); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashState writes the model's saved state into h by value: every
// parameter sorted by name (name, shape, value bits), then the training
// statistics. Save's gob bytes would do only within one process: gob's
// type IDs are process-wide, so they shift with whatever the process
// gob-encoded first.
func hashState(h hash.Hash, m *Model) error {
	st, err := m.state()
	if err != nil {
		return err
	}
	for _, p := range st.Params {
		h.Write([]byte(p.Name))
		hashFloats(h, float64(p.Rows), float64(p.Cols))
		hashFloats(h, p.Data...)
	}
	for _, v := range [][]float64{st.EdgeTargets, st.ActiveStats, {st.PersistRate},
		st.AttrMean, st.AttrStd, st.AttrRho, st.AttrR2, st.AttrCorrChol} {
		hashFloats(h, float64(len(v)))
		hashFloats(h, v...)
	}
	hashFloats(h, float64(len(st.AttrQuantiles)))
	for _, q := range st.AttrQuantiles {
		hashFloats(h, float64(len(q)))
		hashFloats(h, q...)
	}
	return nil
}

// hashFloats writes each value's IEEE bits, little-endian, into h.
func hashFloats(h hash.Hash, vs ...float64) {
	var word [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
}

// TestFitTrainedBitsPinned pins what training produces — every epoch's
// loss and gradient-norm bits and the saved state — at N=94 against
// digests committed from a known-good build, on the three shapes of
// window the trainer has: one full-sequence window, truncated windows with
// a sampled encoder neighbourhood, and a structure-only model (F=0, no
// attribute branch). A change to the order of any floating-point sum on
// the training path moves a digest. The avx2 exp kernel replays
// math.Exp's FMA path, so the digests hold only where the CPU has FMA.
func TestFitTrainedBitsPinned(t *testing.T) {
	if !slices.Contains(tensor.CPUFeatures(), "fma") {
		t.Skip("digests were taken with the FMA exp path")
	}
	for _, tc := range []struct {
		name string
		f    int
		tune func(*Config)
		want string
	}{
		{"full-bptt", 3, func(c *Config) {}, "07a3fb80fd3457fde9b12e070465201d5f314861f6e47ab7eb5f1cd5e1aa1f5e"},
		{"tbptt4-sample3", 3, func(c *Config) { c.TBPTT, c.NeighborSample = 4, 3 }, "1efa89e7e6228206a1cf59760853311c91c99b943ed03dcc89fde5125e057780"},
		{"f0", 0, func(c *Config) {}, "695642f046df6298807d6b93d9179599c743a484d78f0c586920318a461c8a10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(94, tc.f)
			cfg.Epochs = 3
			cfg.Seed = 71
			tc.tune(&cfg)
			if got := trainedDigest(t, cfg, tc.f); got != tc.want {
				t.Fatalf("trained digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestFitBranchPanicSurfaces makes a branch task panic, on whichever
// goroutine claimed it, and asserts Fit re-raises it on the caller's
// goroutine as a value that names the original panic and carries the stack
// it was raised on, with every arena buffer of the aborted window returned
// (the pre-drawn noise of steps the loop never reached included). The
// decoder case widens the attribute MLP by one column, which fails
// SCELoss's shape check; the encoder case gives the encoder's input
// projection a bias one column too wide, which fails inside Encode.
func TestFitBranchPanicSurfaces(t *testing.T) {
	g := toyGraph(12, 2, 4, 19)
	cfg := smallConfig(12, 2)
	cfg.Epochs = 2
	cfg.TBPTT = 2
	if _, err := New(cfg).Fit(g); err != nil { // warm-up, as in TestFitArenaBalance
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name         string
		breakModel   func(m *Model)
		value, stack string
	}{
		{"decoder", func(m *Model) {
			m.attrMLP = nn.NewMLP("attr.mlp", []int{cfg.HiddenDim, cfg.HiddenDim, cfg.F + 1}, tensor.ActLeakyReLU, rand.New(rand.NewSource(1)))
		}, "SCELoss", "SCELoss"},
		{"encoder", func(m *Model) {
			b := m.enc.Params()[1] // the input projection's bias
			b.Value = tensor.New(1, b.Value.Cols+1)
		}, "Affine", "Encode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(cfg)
			tc.breakModel(m)
			m.adam = nn.NewAdam(nn.CollectParams(m.Modules()...), cfg.LR)
			before := tensor.ReadPoolStats()
			r := func() (r any) {
				defer func() { r = recover() }()
				m.Fit(g)
				return nil
			}()
			after := tensor.ReadPoolStats()
			p, ok := r.(*taskPanic)
			if !ok {
				t.Fatalf("Fit panicked with %T %v, want a *taskPanic", r, r)
			}
			if msg := fmt.Sprint(p.value); !strings.Contains(msg, tc.value) {
				t.Fatalf("panic value %q does not name %s", msg, tc.value)
			}
			if !strings.Contains(string(p.stack), tc.stack) {
				t.Fatalf("panic stack does not name %s:\n%s", tc.stack, p.stack)
			}
			if !strings.Contains(p.Error(), tc.value) || !strings.Contains(p.Error(), tc.stack) {
				t.Fatalf("re-raised panic prints %q, want its value and stack", p.Error())
			}
			if m.Trained() {
				t.Fatal("a Fit that panicked must leave the model untrained")
			}
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets == 0 || gets != puts {
				t.Fatalf("panicked Fit leaked arena buffers: %d gets vs %d puts", gets, puts)
			}
		})
	}
}

// TestFitSteadyStateGarbage bounds the heap bytes a warm Fit allocates per
// epoch after its first. The tape ops draw their scratch from the arena or
// recompute it, and the window's hidden state, contexts and index lists
// are the fit's, reused from window to window; what is left is per-op
// bookkeeping (backward closures, tasks, branches) that does not grow with
// N. It reads about 63 KiB per epoch here, against about 750 KiB when
// GaussianKL, SCELoss, SegmentSoftmax, GAT, samplePairs and the window
// loop made their buffers anew; a make of N or E indices or floats per
// step that creeps back adds at least 10 KiB. A GC that empties the
// arena's header pool, or a task interleaving that lifts an arena bucket's
// peak, can add bytes to one Fit, so the test takes the least of up to
// four. Under the race detector sync.Pool drops headers the arena
// recycles, which reads about 105 KiB per epoch, so the bound doubles.
func TestFitSteadyStateGarbage(t *testing.T) {
	g, _, err := datasets.Replica(datasets.Email, 0.05, 5) // N=94, T=14
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(g.N, g.F)
	cfg.Epochs = 4
	cfg.TBPTT = 3
	if _, err := New(cfg).Fit(g); err != nil { // warm the arena
		t.Fatal(err)
	}
	bound := uint64(72 << 10) // bytes per epoch
	if raceEnabled {
		bound *= 2
	}
	least := uint64(math.MaxUint64)
	for try := 0; try < 4 && least > bound; try++ {
		var ms runtime.MemStats
		var from uint64
		if _, err := New(cfg).Fit(g, WithProgress(func(s TrainStats) {
			runtime.ReadMemStats(&ms)
			if s.Epoch == 0 {
				from = ms.TotalAlloc
			}
		})); err != nil {
			t.Fatal(err)
		}
		least = min(least, (ms.TotalAlloc-from)/uint64(cfg.Epochs-1))
	}
	if least > bound {
		t.Fatalf("a warm Fit allocated %d heap bytes per epoch after its first, bound %d", least, bound)
	}
}
