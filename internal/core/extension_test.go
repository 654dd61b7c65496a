package core

import (
	"math/rand"
	"testing"

	"vrdag/internal/tensor"
)

// Tests for the Section III-H node addition/deletion extension.

func TestUpdateActiveSetDeletesAfterThreshold(t *testing.T) {
	m := New(smallConfig(6, 0))
	m.activeStats = []float64{0, 0, 0} // no additions
	active := []bool{true, true, true, true, true, true}
	isolated := []int{5, 0, 5, 0, 5, 0} // nodes 0,2,4 long isolated
	h := tensor.Randn(6, m.Cfg.HiddenDim, 1, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	m.updateActiveSet(active, isolated, h, make([]float64, m.Cfg.HiddenDim), 0, 3, rng)
	for _, v := range []int{0, 2, 4} {
		if active[v] {
			t.Fatalf("node %d isolated beyond Tdel must deactivate", v)
		}
		for _, x := range h.Row(v) {
			if x != 0 {
				t.Fatalf("deactivated node %d must have zeroed hidden state", v)
			}
		}
	}
	for _, v := range []int{1, 3, 5} {
		if !active[v] {
			t.Fatalf("node %d below threshold must stay active", v)
		}
	}
}

func TestUpdateActiveSetAddsAtEmpiricalRate(t *testing.T) {
	m := New(smallConfig(8, 0))
	m.activeStats = []float64{20} // very high rate: all inactive slots reactivated
	active := make([]bool, 8)     // everyone inactive
	active[0] = true
	isolated := make([]int, 8)
	h := tensor.New(8, m.Cfg.HiddenDim)
	for j := range h.Row(0) {
		h.Row(0)[j] = 2 // mean state source
	}
	rng := rand.New(rand.NewSource(3))
	m.updateActiveSet(active, isolated, h, make([]float64, m.Cfg.HiddenDim), 0, 3, rng)
	added := 0
	for v := 1; v < 8; v++ {
		if active[v] {
			added++
			// reactivated state drawn around the mean active state (2)
			for _, x := range h.Row(v) {
				if x < 1 || x > 3 {
					t.Fatalf("reactivated state %g too far from mean", x)
				}
			}
		}
	}
	if added == 0 {
		t.Fatal("high activation rate must reactivate nodes")
	}
}

func TestUpdateActiveSetNoRateNoAdditions(t *testing.T) {
	m := New(smallConfig(5, 0))
	m.activeStats = nil // untrained: rate falls back to zero beyond stats
	active := make([]bool, 5)
	isolated := make([]int, 5)
	h := tensor.New(5, m.Cfg.HiddenDim)
	rng := rand.New(rand.NewSource(4))
	m.updateActiveSet(active, isolated, h, make([]float64, m.Cfg.HiddenDim), 99, 3, rng)
	for v, a := range active {
		if a {
			t.Fatalf("node %d activated without any empirical rate", v)
		}
	}
}

func TestPoissonProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if poisson(0, rng) != 0 {
		t.Fatal("rate 0 must give 0")
	}
	if poisson(-1, rng) != 0 {
		t.Fatal("negative rate must give 0")
	}
	// small-rate mean check
	sum := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		sum += poisson(3, rng)
	}
	mean := float64(sum) / trials
	if mean < 2.7 || mean > 3.3 {
		t.Fatalf("poisson(3) mean = %g", mean)
	}
	// large-rate branch (normal approximation)
	sum = 0
	for i := 0; i < trials; i++ {
		sum += poisson(100, rng)
	}
	mean = float64(sum) / trials
	if mean < 95 || mean > 105 {
		t.Fatalf("poisson(100) mean = %g", mean)
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := []float64{0.1, 0.7, 0.2}
	counts := make([]int, 3)
	const trials = 10000
	for i := 0; i < trials; i++ {
		counts[sampleCategorical(w, rng.Float64())]++
	}
	for k, want := range w {
		got := float64(counts[k]) / trials
		if got < want-0.03 || got > want+0.03 {
			t.Fatalf("component %d frequency %g, want ~%g", k, got, want)
		}
	}
}

func TestInvertLowerTriangular(t *testing.T) {
	l := []float64{
		2, 0, 0,
		1, 3, 0,
		4, 5, 6,
	}
	inv := invertLowerTriangular(make([]float64, 9), l, 3)
	if inv == nil {
		t.Fatal("invertible matrix rejected")
	}
	// L · L⁻¹ = I
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			acc := 0.0
			for k := 0; k < 3; k++ {
				acc += l[i*3+k] * inv[k*3+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if diff := acc - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("L·L⁻¹[%d][%d] = %g", i, j, acc)
			}
		}
	}
	if invertLowerTriangular(make([]float64, 4), []float64{0, 0, 1, 1}, 2) != nil {
		t.Fatal("singular matrix must return nil")
	}
}

func TestCholeskyRecoversFactor(t *testing.T) {
	// cov = L·Lᵀ for a known L must round-trip.
	l := []float64{1, 0, 0.5, 2}
	cov := []float64{
		1, 0.5,
		0.5, 0.25 + 4,
	}
	got := cholesky(make([]float64, 4), cov, 2)
	for i := range l {
		if d := got[i] - l[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("cholesky = %v, want %v", got, l)
		}
	}
}

func TestCholeskyDegenerateFallsBack(t *testing.T) {
	// A negative-definite input must still return a usable diagonal factor.
	got := cholesky(make([]float64, 4), []float64{-1, 0, 0, -1}, 2)
	if got == nil {
		t.Fatal("fallback factor must not be nil")
	}
	if got[0] != 0 || got[3] != 0 {
		t.Fatalf("negative variances must clamp to zero: %v", got)
	}
}
