package downstream

import (
	"math"
	"testing"

	"vrdag/internal/datasets"
	"vrdag/internal/dyngraph"
)

func evalSeq(t *testing.T, seed int64) *dyngraph.Sequence {
	t.Helper()
	g, _, err := datasets.Replica(datasets.Email, 0.03, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestModelFitAndEvaluate(t *testing.T) {
	g := evalSeq(t, 1)
	m := NewModel(Config{Epochs: 10, Seed: 2}, g.N, g.F)
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkF1 < 0 || res.LinkF1 > 1 {
		t.Fatalf("F1 out of range: %g", res.LinkF1)
	}
	if math.IsNaN(res.AttrRMSE) || res.AttrRMSE < 0 {
		t.Fatalf("bad RMSE: %g", res.AttrRMSE)
	}
}

func TestFitRejectsShapeMismatch(t *testing.T) {
	g := evalSeq(t, 3)
	m := NewModel(Config{Epochs: 1}, g.N+1, g.F)
	if err := m.Fit(g); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestFitRejectsTooShortSequences(t *testing.T) {
	m := NewModel(Config{Epochs: 1}, 5, 0)
	g := dyngraph.NewSequence(5, 0, 1)
	if err := m.Fit(g); err == nil {
		t.Fatal("T=1 gives no samples and must error")
	}
}

func TestEvaluateRequiresHistory(t *testing.T) {
	g := evalSeq(t, 4)
	m := NewModel(Config{Epochs: 1, Seed: 5}, g.N, g.F)
	if err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	short := dyngraph.NewSequence(g.N, g.F, 1)
	if _, err := m.Evaluate(short); err == nil {
		t.Fatal("evaluation on T=1 must error")
	}
}

func TestTrainingImprovesLinkF1OverRandom(t *testing.T) {
	g := evalSeq(t, 6)
	trained := NewModel(Config{Epochs: 60, Seed: 7}, g.N, g.F)
	if err := trained.Fit(g); err != nil {
		t.Fatal(err)
	}
	resT, err := trained.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	// A random-weight model evaluated on the same protocol.
	random := NewModel(Config{Epochs: 1, Seed: 8}, g.N, g.F)
	if err := random.Fit(g); err != nil {
		t.Fatal(err)
	}
	resR, err := random.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if resT.LinkF1 < resR.LinkF1-0.1 {
		t.Fatalf("training should not hurt F1 badly: trained=%g random=%g", resT.LinkF1, resR.LinkF1)
	}
}

func TestRunCaseStudyProducesBothArms(t *testing.T) {
	g := evalSeq(t, 9)
	// Synthetic augmentation: an independent replica from the same
	// process plays the role of generator output.
	synth := evalSeq(t, 10)
	base, aug, err := RunCaseStudy(g, Config{Epochs: 15, Seed: 11}, synth)
	if err != nil {
		t.Fatal(err)
	}
	if len(aug) != 1 {
		t.Fatalf("%d augmented arms for one synthetic sequence", len(aug))
	}
	for name, r := range map[string]Result{"base": base, "aug": aug[0]} {
		if r.LinkF1 < 0 || r.LinkF1 > 1 || math.IsNaN(r.AttrRMSE) {
			t.Fatalf("%s arm invalid: %+v", name, r)
		}
	}
}

func TestFeaturesShape(t *testing.T) {
	s := dyngraph.NewSnapshot(4, 3)
	s.AddEdge(0, 1)
	f := features(s, 3)
	if f.Rows != 4 || f.Cols != 5 {
		t.Fatalf("features shape %dx%d", f.Rows, f.Cols)
	}
	if f.At(0, 4) == 0 { // node 0 has out-degree 1 -> normalised nonzero
		t.Fatal("degree feature missing")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := evalSeq(t, 12)
	run := func() Result {
		m := NewModel(Config{Epochs: 5, Seed: 13}, g.N, g.F)
		if err := m.Fit(g); err != nil {
			t.Fatal(err)
		}
		r, err := m.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed must reproduce results: %+v vs %+v", a, b)
	}
}
