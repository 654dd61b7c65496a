package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// trainedDigest fits a fresh model on g and returns the sha256 of every
// epoch's TrainStats float bits followed by the Save bytes.
func trainedDigest(t *testing.T, cfg Config, f int) string {
	t.Helper()
	g := toyGraph(cfg.N, f, 8, 71)
	h := sha256.New()
	var word [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	m := New(cfg)
	if _, err := m.Fit(g, WithProgress(func(s TrainStats) {
		for _, v := range []float64{s.Loss, s.StrucLoss, s.AttrLoss, s.KLLoss, s.GradNorm} {
			put(v)
		}
	})); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitTrainedBitsPinned pins what training produces — every epoch's
// loss and gradient-norm bits and the saved model — at N=94 against
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
		{"full-bptt", 3, func(c *Config) {}, "f9b9ecea36205b7fb78f6e9d131d81b0c0574ec34c3c42668311a1bc6735af4c"},
		{"tbptt4-sample3", 3, func(c *Config) { c.TBPTT, c.NeighborSample = 4, 3 }, "53e6d01a221af1f42e5df0b779a4499e2a44b92850c1731613535656fed4e36c"},
		{"f0", 0, func(c *Config) {}, "ab5802c5ba0a164b0196410ccda4aa14c5d645d1a6d058c5c9542fe6da620c38"},
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
			m.attrMLP = nn.NewMLP("attr.mlp", []int{cfg.HiddenDim, cfg.HiddenDim, cfg.F + 1}, nn.ActLeakyReLU, rand.New(rand.NewSource(1)))
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
