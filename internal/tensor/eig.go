package tensor

import "math"

// symEig computes the eigendecomposition of a symmetric n×n matrix m
// (row-major) with the cyclic Jacobi method: m = V·diag(w)·Vᵀ. It works in
// place, overwriting m, and writes the eigenvalues into w and the
// eigenvector matrix V (columns are eigenvectors) into v. Intended for the
// small (F ≤ a few dozen) correlation matrices used in attribute
// calibration.
func symEig(m, w, v []float64, n int) {
	clear(v)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += m[p*n+q] * m[p*n+q]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app, aqq := m[p*n+p], m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// rotate rows/cols p and q of m
				for k := 0; k < n; k++ {
					mkp, mkq := m[k*n+p], m[k*n+q]
					m[k*n+p] = c*mkp - s*mkq
					m[k*n+q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p*n+k], m[q*n+k]
					m[p*n+k] = c*mpk - s*mqk
					m[q*n+k] = s*mpk + c*mqk
				}
				// accumulate eigenvectors
				for k := 0; k < n; k++ {
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		w[i] = m[i*n+i]
	}
}

// NearestCorrelation projects a symmetric matrix onto the set of valid
// correlation matrices: negative eigenvalues are clipped to zero and the
// diagonal is renormalised to one. Returns the projected matrix
// (row-major n×n).
func NearestCorrelation(a []float64, n int) []float64 {
	return NewCorrScratch(n).Nearest(a)
}

// CorrScratch is NearestCorrelation's working set for one n, for a caller
// that projects a matrix on every step: Nearest allocates nothing.
type CorrScratch struct {
	n               int
	m, v, w, d, out []float64
}

// NewCorrScratch returns the working set for n×n projections.
func NewCorrScratch(n int) *CorrScratch {
	return &CorrScratch{
		n: n,
		m: make([]float64, n*n), v: make([]float64, n*n), out: make([]float64, n*n),
		w: make([]float64, n), d: make([]float64, n),
	}
}

// Nearest is NearestCorrelation(a, n), written into the scratch's own
// output, which stays valid until the next call.
func (s *CorrScratch) Nearest(a []float64) []float64 {
	n, m, v, w, d, out := s.n, s.m, s.v, s.w, s.d, s.out
	// symmetrize first
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m[i*n+j] = (a[i*n+j] + a[j*n+i]) / 2
		}
	}
	symEig(m, w, v, n)
	for i := range w {
		if w[i] < 0 {
			w[i] = 0
		}
	}
	// reconstruct V diag(w) Vᵀ
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < n; k++ {
				acc += v[i*n+k] * w[k] * v[j*n+k]
			}
			out[i*n+j] = acc
		}
	}
	// renormalise diagonal to 1 (guarding degenerate rows)
	for i := 0; i < n; i++ {
		if out[i*n+i] > 1e-12 {
			d[i] = 1 / math.Sqrt(out[i*n+i])
		} else {
			d[i] = 0
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				out[i*n+j] = 1
			} else {
				out[i*n+j] *= d[i] * d[j]
			}
		}
	}
	return out
}
