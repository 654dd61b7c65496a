package metrics

import (
	"fmt"
	"math"
	"sort"
)

// MMD computes the (squared) maximum mean discrepancy between two empirical
// samples using a Gaussian RBF kernel of bandwidth sigma, which must be
// positive. This follows the evaluation protocol of CPGAN/GraphRNN-style
// generator comparisons, which the paper adopts for degree and
// clustering-coefficient distributions.
//
// Degrees and clustering coefficients repeat heavily, so each sample is
// sorted and grouped into (value, count) pairs and the kernel is summed
// once per pair of distinct values, weighted by both counts: O(N log N + D²)
// for N elements with D distinct values, serially, with no fan-out. The
// result is the pairwise sum over all N² element pairs up to summation
// order.
func MMD(x, y []float64, sigma float64) float64 {
	if !(sigma > 0) {
		panic(fmt.Sprintf("metrics: MMD sigma must be positive, got %v", sigma))
	}
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	g := 1 / (2 * sigma * sigma)
	xv, xc := groupValues(x)
	yv, yc := groupValues(y)
	// sum returns Σ_i Σ_j ac[i]·bc[j]·k(av[i], bv[j]).
	sum := func(av, ac, bv, bc []float64) float64 {
		s := 0.0
		for i, a := range av {
			row := 0.0
			for j, b := range bv {
				d := a - b
				row += bc[j] * math.Exp(-d*d*g)
			}
			s += ac[i] * row
		}
		return s
	}
	kxx := sum(xv, xc, xv, xc)
	kyy := sum(yv, yc, yv, yc)
	kxy := sum(xv, xc, yv, yc)
	nx, ny := float64(len(x)), float64(len(y))
	v := kxx/(nx*nx) + kyy/(ny*ny) - 2*kxy/(nx*ny)
	if v < 0 {
		v = 0
	}
	return v
}

// groupValues returns the distinct values of s in ascending order and how
// often each occurs. Every step of the loop consumes at least one element,
// so a NaN, which equals nothing, ends up in a group of its own.
func groupValues(s []float64) (vals, counts []float64) {
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	vals = sorted[:0] // writes never pass the read index i
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		vals = append(vals, sorted[i])
		counts = append(counts, float64(j-i))
		i = j
	}
	return vals, counts
}

// Histogram bins values into nbins equal-width bins over [lo, hi] and
// returns normalised frequencies. Out-of-range values clamp to the edge
// bins.
func Histogram(values []float64, lo, hi float64, nbins int) []float64 {
	h := make([]float64, nbins)
	if len(values) == 0 || nbins == 0 || hi <= lo {
		return h
	}
	w := (hi - lo) / float64(nbins)
	for _, v := range values {
		b := int((v - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		h[b]++
	}
	for i := range h {
		h[i] /= float64(len(values))
	}
	return h
}

// JSD computes the Jensen-Shannon divergence between two sample sets by
// binning both into a shared histogram (base-2 logs, so JSD ∈ [0,1]).
func JSD(x, y []float64, nbins int) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	lo, hi := rangeOf(append(append([]float64{}, x...), y...))
	if hi == lo {
		hi = lo + 1
	}
	p := Histogram(x, lo, hi, nbins)
	q := Histogram(y, lo, hi, nbins)
	return JSDHist(p, q)
}

// JSDHist computes the Jensen-Shannon divergence between two normalised
// histograms of equal length.
func JSDHist(p, q []float64) float64 {
	kl := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			if a[i] > 0 && b[i] > 0 {
				s += a[i] * math.Log2(a[i]/b[i])
			}
		}
		return s
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	return kl(p, m)/2 + kl(q, m)/2
}

// EMD computes the one-dimensional earth mover's distance (Wasserstein-1)
// between two empirical distributions via quantile-function integration.
func EMD(x, y []float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	xs := append([]float64(nil), x...)
	ys := append([]float64(nil), y...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	// Integrate |F_x^{-1}(u) - F_y^{-1}(u)| du over a shared grid.
	const grid = 512
	total := 0.0
	for g := 0; g < grid; g++ {
		u := (float64(g) + 0.5) / grid
		total += math.Abs(quantile(xs, u) - quantile(ys, u))
	}
	return total / grid
}

func quantile(sorted []float64, u float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := u * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func rangeOf(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Spearman computes Spearman's rank correlation coefficient between two
// equal-length samples. Ties receive average ranks.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx := ranks(x)
	ry := ranks(y)
	return pearson(rx, ry)
}

func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := (float64(i) + float64(j)) / 2
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// SpearmanMatrix returns the F×F matrix of pairwise Spearman correlations
// between attribute columns of an N×F sample (flattened row-major).
func SpearmanMatrix(data [][]float64) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	f := len(data[0])
	cols := make([][]float64, f)
	for j := 0; j < f; j++ {
		cols[j] = make([]float64, len(data))
		for i := range data {
			cols[j][i] = data[i][j]
		}
	}
	m := make([][]float64, f)
	for i := 0; i < f; i++ {
		m[i] = make([]float64, f)
		for j := 0; j < f; j++ {
			if i == j {
				m[i][j] = 1
			} else {
				m[i][j] = Spearman(cols[i], cols[j])
			}
		}
	}
	return m
}

// SpearmanMAE returns the mean absolute error between the attribute
// Spearman-correlation matrices of two node-attribute samples (Table II).
// Only off-diagonal entries contribute.
func SpearmanMAE(real, synth [][]float64) float64 {
	a := SpearmanMatrix(real)
	b := SpearmanMatrix(synth)
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	f := len(a)
	if f == 1 {
		// A 1×1 correlation matrix has no off-diagonal entry to compare.
		return 0
	}
	sum, cnt := 0.0, 0
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			if i == j {
				continue
			}
			sum += math.Abs(a[i][j] - b[i][j])
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
