package core

import (
	"math"
	"math/rand"
	"testing"

	"vrdag/internal/metrics"
	"vrdag/internal/tensor"
)

// Tests for the generation-time attribute observation model: the
// Gaussian-copula marginal map, output correlation correction, and the
// end-to-end statistical guarantees on generated attributes.

func TestMarginalMapMonotone(t *testing.T) {
	m := New(smallConfig(4, 1))
	// quantile grid for a uniform [0, 10] marginal
	q := make([]float64, 257)
	for k := range q {
		q[k] = 10 * float64(k) / 256
	}
	m.cal.attrQuantiles = [][]float64{q}
	prev := math.Inf(-1)
	for y := -4.0; y <= 4.0; y += 0.25 {
		x := m.cal.marginalMap(0, y)
		if x < prev {
			t.Fatalf("marginal map must be monotone: f(%g)=%g after %g", y, x, prev)
		}
		if x < 0 || x > 10 {
			t.Fatalf("output escaped the marginal support: %g", x)
		}
		prev = x
	}
	// median maps to median
	if mid := m.cal.marginalMap(0, 0); math.Abs(mid-5) > 0.1 {
		t.Fatalf("f(0) = %g, want ~5", mid)
	}
}

func TestMarginalMapFallsBackToMoments(t *testing.T) {
	m := New(smallConfig(4, 1))
	m.cal.attrMean = []float64{3}
	m.cal.attrStd = []float64{2}
	m.cal.attrQuantiles = nil
	if got := m.cal.marginalMap(0, 1); math.Abs(got-5) > 1e-12 {
		t.Fatalf("fallback = %g, want mean+std = 5", got)
	}
}

func TestOutputTransformRestoresCorrelation(t *testing.T) {
	m := New(smallConfig(4, 2))
	// Target correlation 0.8; state drawn with correlation ~0.
	m.cal.attrCorrChol = cholesky(make([]float64, 4), []float64{1, 0.8, 0.8, 1}, 2)
	rng := rand.New(rand.NewSource(1))
	n := 2000
	state := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		state.Set(i, 0, rng.NormFloat64())
		state.Set(i, 1, rng.NormFloat64())
	}
	tm := m.cal.outputTransform(state, newAttrScratch(2))
	// apply and measure
	var a, b []float64
	for i := 0; i < n; i++ {
		row := state.Row(i)
		a = append(a, tm[0]*row[0]+tm[1]*row[1])
		b = append(b, tm[2]*row[0]+tm[3]*row[1])
	}
	if rho := metrics.Spearman(a, b); math.Abs(rho-0.8) > 0.05 {
		t.Fatalf("transformed correlation = %g, want ~0.8", rho)
	}
}

func TestOutputTransformIdentityFallbacks(t *testing.T) {
	m := New(smallConfig(4, 2))
	m.cal.attrCorrChol = nil
	st := tensor.Randn(10, 2, 1, rand.New(rand.NewSource(2)))
	tm := m.cal.outputTransform(st, newAttrScratch(2))
	want := []float64{1, 0, 0, 1}
	for i := range want {
		if tm[i] != want[i] {
			t.Fatalf("missing chol must give identity, got %v", tm)
		}
	}
	// tiny row count must also fall back
	m.cal.attrCorrChol = cholesky(make([]float64, 4), []float64{1, 0, 0, 1}, 2)
	tm = m.cal.outputTransform(tensor.Randn(2, 2, 1, rand.New(rand.NewSource(3))), newAttrScratch(2))
	for i := range want {
		if tm[i] != want[i] {
			t.Fatalf("tiny input must give identity, got %v", tm)
		}
	}
}

// End-to-end property: generated attributes reproduce marginals (via the
// copula), cross-dimension correlation (via the output transform), and
// temporal persistence (via the AR state), all measured against training
// statistics on a graph with non-Gaussian, correlated, persistent attrs.
func TestGeneratedAttributeStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, steps := 60, 8
	g := toyGraph(n, 0, steps, 7)
	g.F = 2
	// overwrite with a controlled attribute process: bimodal marginal,
	// cross-corr ~0.7, lag-1 autocorr ~0.9
	state := make([][2]float64, n)
	for i := range state {
		mode := -2.0
		if i%2 == 0 {
			mode = 2.0
		}
		state[i] = [2]float64{mode, mode}
	}
	for tt := 0; tt < steps; tt++ {
		g.Snapshots[tt].X = tensor.New(n, 2)
		for i := 0; i < n; i++ {
			shared := rng.NormFloat64()
			state[i][0] = 0.9*state[i][0] + 0.3*(0.84*shared+0.54*rng.NormFloat64())
			state[i][1] = 0.9*state[i][1] + 0.3*(0.84*shared+0.54*rng.NormFloat64())
			g.Snapshots[tt].X.Set(i, 0, state[i][0])
			g.Snapshots[tt].X.Set(i, 1, state[i][1])
		}
	}
	cfg := smallConfig(n, 2)
	cfg.Epochs = 6
	m := New(cfg)
	if _, err := m.Fit(g); err != nil {
		t.Fatal(err)
	}
	synth, err := m.Generate(steps)
	if err != nil {
		t.Fatal(err)
	}

	// 1. marginals: JSD must be small despite bimodality
	if jsd := metrics.AttrJSD(g, synth, 32); jsd > 0.1 {
		t.Fatalf("copula marginals too far off: JSD=%g", jsd)
	}
	// 2. cross-dimension correlation preserved
	origRho := metrics.SpearmanMatrix(metrics.AttributeRows(g))[0][1]
	genRho := metrics.SpearmanMatrix(metrics.AttributeRows(synth))[0][1]
	if math.Abs(origRho-genRho) > 0.25 {
		t.Fatalf("correlation drifted: orig=%g gen=%g", origRho, genRho)
	}
	// 3. temporal persistence: per-step attribute changes comparable
	origMAE, _ := metrics.AttrDifferenceSeries(g)
	genMAE, _ := metrics.AttrDifferenceSeries(synth)
	om, gm := mean(origMAE), mean(genMAE)
	if gm > om*3 || gm < om/3 {
		t.Fatalf("temporal churn mismatched: orig=%g gen=%g", om, gm)
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if len(v) == 0 {
		return 0
	}
	return s / float64(len(v))
}
