package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func normalSample(n int, mu, sd float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = mu + sd*rng.NormFloat64()
	}
	return out
}

// degreeSample draws n heavy-tailed integer degrees in 0–150, the shape of
// a ×1.0 replica's degree vector.
func degreeSample(n int, alpha float64, seed int64) []float64 {
	d := plSample(n, alpha, seed)
	for i := range d {
		d[i] = math.Min(d[i]-1, 150)
	}
	return d
}

func TestMMDIdenticalNearZero(t *testing.T) {
	x := normalSample(100, 0, 1, 1)
	if v := MMD(x, x, 1); v > 1e-10 {
		t.Fatalf("MMD(x,x) = %g", v)
	}
}

func TestMMDSeparatesDistributions(t *testing.T) {
	x := normalSample(200, 0, 1, 1)
	near := normalSample(200, 0.1, 1, 2)
	far := normalSample(200, 5, 1, 3)
	dNear := MMD(x, near, 1)
	dFar := MMD(x, far, 1)
	if dFar <= dNear {
		t.Fatalf("MMD must grow with distribution distance: near=%g far=%g", dNear, dFar)
	}
}

func TestMMDNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		x := normalSample(30, 0, 1, seed)
		y := normalSample(30, 1, 2, seed+1)
		return MMD(x, y, 1) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{0, -2, math.NaN()} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprint(sigma)) {
					t.Errorf("MMD with sigma %v: panic %q, want one naming the value", sigma, msg)
				}
			}()
			MMD([]float64{1}, []float64{2}, sigma)
		}()
	}
}

// pairwiseMMD is the reference MMD: the kernel evaluated on every element
// pair of the two samples, with no grouping. Each row is summed on its own
// before the rows are added up; one running sum over all N² terms would
// itself drift by more than the 1e-12 the grouped sum is held to.
func pairwiseMMD(x, y []float64, sigma float64) float64 {
	g := 1 / (2 * sigma * sigma)
	sum := func(a, b []float64) float64 {
		s := 0.0
		for _, u := range a {
			row := 0.0
			for _, v := range b {
				d := u - v
				row += math.Exp(-d * d * g)
			}
			s += row
		}
		return s
	}
	nx, ny := float64(len(x)), float64(len(y))
	v := sum(x, x)/(nx*nx) + sum(y, y)/(ny*ny) - 2*sum(x, y)/(nx*ny)
	if v < 0 {
		v = 0
	}
	return v
}

// clusteringSample draws n local clustering coefficients the way they look
// on a sparse snapshot: 2·links/(k(k−1)) for small k, half of them 0.
func clusteringSample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(2) == 0 {
			continue
		}
		k := 2 + rng.Intn(20)
		out[i] = 2 * float64(rng.Intn(k*(k-1)/2+1)) / float64(k*(k-1))
	}
	return out
}

// TestMMDGroupedMatchesPairwise: grouping equal values changes only the
// order of the kernel sums, so MMD must stay within rounding of the
// all-pairs reference on every shape of sample it is given.
func TestMMDGroupedMatchesPairwise(t *testing.T) {
	fill := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		x, y  []float64
		sigma float64
	}{
		{"degrees N=2000", degreeSample(2000, 2.2, 21), degreeSample(2000, 2.6, 22), 1},
		{"degrees unequal lengths", degreeSample(1500, 2.2, 23), degreeSample(400, 2.0, 24), 1},
		{"clustering", clusteringSample(1200, 25), clusteringSample(900, 26), 0.1},
		{"distinct normals", normalSample(300, 0, 1, 27), normalSample(250, 0.5, 2, 28), 1},
		{"one element each", []float64{3}, []float64{5}, 1},
		{"one element against many", []float64{3}, degreeSample(500, 2.2, 29), 1},
		{"all equal, same value", fill(200, 2), fill(300, 2), 1},
		{"all equal, different values", fill(200, 2), fill(100, 3), 0.1},
	} {
		got := MMD(tc.x, tc.y, tc.sigma)
		want := pairwiseMMD(tc.x, tc.y, tc.sigma)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: grouped MMD = %.17g, pairwise = %.17g", tc.name, got, want)
		}
	}
}

// mmdFuzzSample maps each byte to a sample value: most bytes to one of 32
// small integers, so values repeat as degrees do, and the top four to NaN,
// +Inf, −Inf and −0, the values on which grouping could go wrong.
func mmdFuzzSample(bs []byte) []float64 {
	s := make([]float64, len(bs))
	for i, b := range bs {
		switch b {
		case 0xfc:
			s[i] = math.NaN()
		case 0xfd:
			s[i] = math.Inf(1)
		case 0xfe:
			s[i] = math.Inf(-1)
		case 0xff:
			s[i] = math.Copysign(0, -1)
		default:
			s[i] = float64(b % 32)
		}
	}
	return s
}

// FuzzMMDGrouped holds the grouped MMD to the pairwise reference on
// fuzzer-built samples at both of CompareStructure's bandwidths. Where a
// NaN or an infinity makes the reference NaN, the grouped result must be
// NaN too; that the call returns at all is the other half of the check.
// testdata/fuzz/FuzzMMDGrouped holds seeds with NaN, ±0 and ±Inf.
func FuzzMMDGrouped(f *testing.F) {
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) == 0 || len(yb) == 0 || len(xb)+len(yb) > 4096 {
			t.Skip()
		}
		x, y := mmdFuzzSample(xb), mmdFuzzSample(yb)
		for _, sigma := range []float64{1, 0.1} {
			got := MMD(x, y, sigma)
			want := pairwiseMMD(x, y, sigma)
			if math.IsNaN(want) {
				if !math.IsNaN(got) {
					t.Fatalf("sigma %v: grouped MMD = %v, pairwise = NaN (x %v, y %v)", sigma, got, x, y)
				}
				continue
			}
			if !(math.Abs(got-want) <= 1e-12) {
				t.Fatalf("sigma %v: grouped MMD = %.17g, pairwise = %.17g (x %v, y %v)", sigma, got, want, x, y)
			}
		}
	})
}

func TestMMDEmptyInputs(t *testing.T) {
	if MMD(nil, []float64{1}, 1) != 0 || MMD([]float64{1}, nil, 1) != 0 {
		t.Fatal("empty samples must give 0")
	}
}

func TestHistogramNormalised(t *testing.T) {
	h := Histogram([]float64{0, 0.5, 1, 1.5, 2}, 0, 2, 4)
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("histogram sums to %g", sum)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := Histogram([]float64{-100, 100}, 0, 1, 2)
	if h[0] != 0.5 || h[1] != 0.5 {
		t.Fatalf("clamping failed: %v", h)
	}
}

func TestJSDProperties(t *testing.T) {
	x := normalSample(500, 0, 1, 4)
	y := normalSample(500, 0, 1, 5)
	z := normalSample(500, 10, 1, 6)
	same := JSD(x, y, 32)
	diff := JSD(x, z, 32)
	if same >= diff {
		t.Fatalf("JSD(same)=%g must be < JSD(diff)=%g", same, diff)
	}
	if diff > 1+1e-9 {
		t.Fatalf("JSD must be <= 1 (base-2), got %g", diff)
	}
	if JSD(x, x, 32) > 1e-12 {
		t.Fatal("JSD(x,x) must be 0")
	}
}

func TestJSDSymmetry(t *testing.T) {
	x := normalSample(100, 0, 1, 7)
	y := normalSample(100, 2, 1, 8)
	if math.Abs(JSD(x, y, 16)-JSD(y, x, 16)) > 1e-12 {
		t.Fatal("JSD must be symmetric")
	}
}

func TestEMDShiftEqualsDistance(t *testing.T) {
	x := normalSample(2000, 0, 1, 9)
	y := make([]float64, len(x))
	for i := range x {
		y[i] = x[i] + 3
	}
	got := EMD(x, y)
	if math.Abs(got-3) > 0.05 {
		t.Fatalf("EMD of 3-shift = %g, want ~3", got)
	}
}

func TestEMDIdentityAndSymmetry(t *testing.T) {
	x := normalSample(300, 1, 2, 10)
	y := normalSample(300, 0, 1, 11)
	if EMD(x, x) > 1e-9 {
		t.Fatal("EMD(x,x) must be ~0")
	}
	if math.Abs(EMD(x, y)-EMD(y, x)) > 1e-9 {
		t.Fatal("EMD must be symmetric")
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 9, 16, 100} // monotone but nonlinear
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman = %v, want 1", got)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := Spearman(x, rev); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Spearman = %v, want -1", got)
	}
}

func TestSpearmanTiesAveraged(t *testing.T) {
	x := []float64{1, 1, 2}
	y := []float64{1, 1, 2}
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman with ties = %v", got)
	}
}

func TestSpearmanIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 2000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	if got := Spearman(x, y); math.Abs(got) > 0.06 {
		t.Fatalf("Spearman of independent samples = %v", got)
	}
}

func TestSpearmanMatrixDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([][]float64, 50)
	for i := range data {
		a := rng.NormFloat64()
		data[i] = []float64{a, 2 * a, rng.NormFloat64()}
	}
	m := SpearmanMatrix(data)
	if m[0][0] != 1 || m[1][1] != 1 {
		t.Fatal("diagonal must be 1")
	}
	if math.Abs(m[0][1]-1) > 1e-9 {
		t.Fatalf("perfectly correlated columns: %v", m[0][1])
	}
	if math.Abs(m[0][1]-m[1][0]) > 1e-12 {
		t.Fatal("matrix must be symmetric")
	}
}

func TestSpearmanMAECorrelatedVsShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 300
	real := make([][]float64, n)
	good := make([][]float64, n)
	bad := make([][]float64, n)
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		real[i] = []float64{a, a + 0.1*rng.NormFloat64()}
		b := rng.NormFloat64()
		good[i] = []float64{b, b + 0.1*rng.NormFloat64()}
		bad[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	gm := SpearmanMAE(real, good)
	bm := SpearmanMAE(real, bad)
	if gm >= bm {
		t.Fatalf("correlation-preserving generator must score better: good=%g bad=%g", gm, bm)
	}
}
