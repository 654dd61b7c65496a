package core

import (
	"math"
	"math/rand"
	"testing"

	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
	"vrdag/internal/metrics"
)

// toyGraph builds a small dynamic attributed graph with persistent
// community structure and drifting attributes, enough signal for the model
// to learn from in a handful of epochs.
func toyGraph(n, f, tt int, seed int64) *dyngraph.Sequence {
	rng := rand.New(rand.NewSource(seed))
	g := dyngraph.NewSequence(n, f, tt)
	half := n / 2
	for t := 0; t < tt; t++ {
		s := g.At(t)
		for e := 0; e < n*2; e++ {
			u := rng.Intn(n)
			var v int
			if rng.Float64() < 0.8 { // intra-community
				if u < half {
					v = rng.Intn(half)
				} else {
					v = half + rng.Intn(n-half)
				}
			} else {
				v = rng.Intn(n)
			}
			s.AddEdge(u, v)
		}
		if f > 0 {
			for i := 0; i < n; i++ {
				base := 1.0
				if i >= half {
					base = -1.0
				}
				for j := 0; j < f; j++ {
					s.X.Set(i, j, base+0.3*rng.NormFloat64()+0.1*float64(t))
				}
			}
		}
	}
	return g
}

func smallConfig(n, f int) Config {
	c := DefaultConfig(n, f)
	c.HiddenDim = 8
	c.LatentDim = 4
	c.EncoderDim = 8
	c.Epochs = 5
	c.CandidateCap = 0 // exact decoding on small graphs
	return c
}

func TestNewModelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for N=0")
		}
	}()
	New(Config{})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{N: 10}.withDefaults()
	if c.HiddenDim != 16 || c.K != 2 || c.Epochs != 30 || c.LR != 5e-3 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestFitValidatesShape(t *testing.T) {
	m := New(smallConfig(10, 2))
	if _, err := m.Fit(dyngraph.NewSequence(11, 2, 3)); err == nil {
		t.Fatal("must reject N mismatch")
	}
	if _, err := m.Fit(dyngraph.NewSequence(10, 3, 3)); err == nil {
		t.Fatal("must reject F mismatch")
	}
	if _, err := m.Fit(&dyngraph.Sequence{N: 10, F: 2}); err == nil {
		t.Fatal("must reject empty sequence")
	}
}

func TestFitReducesLoss(t *testing.T) {
	g := toyGraph(16, 2, 4, 1)
	cfg := smallConfig(16, 2)
	cfg.Epochs = 25
	m := New(cfg)
	var first, last float64
	_, err := m.Fit(g, WithProgress(func(s TrainStats) {
		if s.Epoch == 0 {
			first = s.Loss
		}
		last = s.Loss
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Trained() {
		t.Fatal("model must be marked trained")
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first=%g last=%g", first, last)
	}
}

func TestGenerateShapeAndValidity(t *testing.T) {
	g := toyGraph(12, 2, 3, 2)
	m := New(smallConfig(12, 2))
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := m.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 12 || out.F != 2 || out.T() != 5 {
		t.Fatalf("generated shape N=%d F=%d T=%d", out.N, out.F, out.T())
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("generated sequence invalid: %v", err)
	}
	// every snapshot must have finite attributes
	for tt, s := range out.Snapshots {
		for _, v := range s.X.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite attribute at t=%d", tt)
			}
		}
	}
}

func TestGenerateRejectsBadT(t *testing.T) {
	m := New(smallConfig(8, 0))
	if _, err := m.Generate(0); err == nil {
		t.Fatal("T=0 must be rejected")
	}
	if _, err := m.Generate(-3); err == nil {
		t.Fatal("negative T must be rejected")
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	g := toyGraph(10, 1, 3, 3)
	m := New(smallConfig(10, 1))
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	a, err := m.GenerateOpts(GenOptions{T: 3, Seed: 99, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.GenerateOpts(GenOptions{T: 3, Seed: 99, Parallel: false})
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 3; tt++ {
		sa, sb := a.At(tt), b.At(tt)
		if sa.NumEdges() != sb.NumEdges() {
			t.Fatalf("t=%d: parallel and serial decode disagree (%d vs %d edges)",
				tt, sa.NumEdges(), sb.NumEdges())
		}
		for u := 0; u < 10; u++ {
			for _, v := range sa.Out[u] {
				if !sb.HasEdge(u, v) {
					t.Fatalf("t=%d: edge %d->%d only in parallel run", tt, u, v)
				}
			}
		}
	}
}

func TestDegreeCalibrationMatchesDensity(t *testing.T) {
	g := toyGraph(20, 0, 4, 4)
	cfg := smallConfig(20, 0)
	cfg.Epochs = 3
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := m.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated generation should land within 3x of the original density.
	origM := float64(g.TotalTemporalEdges())
	genM := float64(out.TotalTemporalEdges())
	if genM < origM/3 || genM > origM*3 {
		t.Fatalf("calibrated density off: orig=%g gen=%g", origM, genM)
	}
}

func TestGenerateWithCandidateCap(t *testing.T) {
	g := toyGraph(30, 0, 3, 5)
	cfg := smallConfig(30, 0)
	cfg.CandidateCap = 8
	cfg.Epochs = 2
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := m.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// per-node out-degree cannot exceed the candidate cap
	for _, s := range out.Snapshots {
		for u := 0; u < s.N; u++ {
			if s.OutDegree(u) > 8 {
				t.Fatalf("out-degree %d exceeds candidate cap", s.OutDegree(u))
			}
		}
	}
}

func TestGenerateDynamicNodes(t *testing.T) {
	g := toyGraph(15, 0, 4, 6)
	cfg := smallConfig(15, 0)
	cfg.Epochs = 2
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	out, err := m.GenerateOpts(GenOptions{T: 6, Seed: 7, DynamicNodes: true, Tdel: 1, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUntrainedGenerateStillValid(t *testing.T) {
	// Generation from an untrained model must produce a structurally valid
	// (if statistically meaningless) sequence — no panics, no NaNs.
	m := New(smallConfig(10, 2))
	out, err := m.Generate(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainedBeatsUntrainedOnStructure(t *testing.T) {
	g := toyGraph(20, 0, 4, 8)
	cfg := smallConfig(20, 0)
	cfg.Epochs = 20
	trained := New(cfg)
	if _, err := trained.Fit(g); err != nil {
		t.Fatal(err)
	}
	cfgU := cfg
	untrained := New(cfgU)
	untrained.cal = newCalibration(g) // give it the same density calibration

	genT, err := trained.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	genU, err := untrained.Generate(4)
	if err != nil {
		t.Fatal(err)
	}
	rt := metrics.CompareStructure(g, genT)
	ru := metrics.CompareStructure(g, genU)
	// Training should not make degree reproduction dramatically worse;
	// across seeds it usually helps. Use a generous margin to avoid
	// flakiness while still catching regressions where training corrupts
	// the decoder.
	if rt.InDegMMD > ru.InDegMMD*2+0.05 {
		t.Fatalf("training degraded structure badly: trained=%g untrained=%g", rt.InDegMMD, ru.InDegMMD)
	}
}

// TestFitFidelityPinned holds the trainer's fidelity by value: the model
// bench/ generates from (Email×0.05, N=94, DefaultConfig, seed 1, 24
// epochs) must land where it does today on the two scores bench/probes.go
// reports as metrics.degree_mmd and metrics.attr_jsd. An untrained model
// reads 0.137 and 0.234, so a broken objective falls far outside the band.
func TestFitFidelityPinned(t *testing.T) {
	g, _, err := datasets.Replica(datasets.Email, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(g.N, g.F)
	cfg.Seed = 1
	cfg.Epochs = 24
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	gen, err := m.GenerateOpts(GenOptions{T: g.T(), Seed: 1, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.CompareStructure(g, gen)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"degree MMD", (rep.InDegMMD + rep.OutDegMMD) / 2, 0.029564},
		{"attribute JSD", metrics.AttrJSD(g, gen, 32), 0.016425},
	} {
		if math.Abs(c.got-c.want) > 0.25*c.want {
			t.Errorf("%s = %.6f, want %.6f ± 25 %%", c.name, c.got, c.want)
		}
	}
}

func TestNumParamsPositiveAndStable(t *testing.T) {
	m := New(smallConfig(10, 2))
	p := m.NumParams()
	if p <= 0 {
		t.Fatal("NumParams must be positive")
	}
	if p != New(smallConfig(10, 2)).NumParams() {
		t.Fatal("same config must give same parameter count")
	}
}

func TestFitStatsFinite(t *testing.T) {
	g := toyGraph(10, 2, 3, 9)
	m := New(smallConfig(10, 2))
	stats, err := m.Fit(g)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"Loss": stats.Loss, "Struc": stats.StrucLoss,
		"Attr": stats.AttrLoss, "KL": stats.KLLoss, "Grad": stats.GradNorm,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s is not finite: %v", name, v)
		}
	}
	if stats.KLLoss < 0 {
		t.Fatalf("KL must be nonnegative, got %g", stats.KLLoss)
	}
}
