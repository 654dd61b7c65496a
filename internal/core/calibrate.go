package core

import (
	"math"
	"math/rand"
	"sort"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// calibration is what generation copies from the training sequence on top
// of the learned model (Config.DegreeCalibration). Its seams, identities on
// a nil calibration, are replay (edge persistence), lambda (edge density)
// and composeAttrs (attributes); encodeAttrs runs whatever the switch says.
type calibration struct {
	edgeTargets   []float64    // expected |E_t| per step
	persistRate   float64      // P(edge at t | edge at t−1) in the training data
	attrMean      []float64    // per-dimension attribute mean over the sequence
	attrStd       []float64    // per-dimension attribute std over the sequence
	attrRho       []float64    // per-dimension lag-1 autocorrelation
	resid         residMoments // decoder↔truth moments of the final epoch
	attrR2        []float64    // per-dimension decoder explanatory power in [0,1]
	attrQuantiles [][]float64  // per-dimension empirical quantile grid
	attrCorrChol  []float64    // Cholesky factor of the data's attribute correlation (static fallback)
}

// calibrator returns the model's calibration, nil with DegreeCalibration off.
func (m *Model) calibrator() *calibration {
	if !m.Cfg.DegreeCalibration {
		return nil
	}
	return &m.cal
}

// newCalibration captures the statistics of the training sequence g.
func newCalibration(g *dyngraph.Sequence) calibration {
	var c calibration
	c.edgeTargets = make([]float64, g.T())
	if g.F > 0 {
		c.attrMean = make([]float64, g.F)
		c.attrStd = make([]float64, g.F)
		count := float64(g.N * g.T())
		for _, s := range g.Snapshots {
			for i := 0; i < g.N; i++ {
				row := s.X.Row(i)
				for j := 0; j < g.F; j++ {
					c.attrMean[j] += row[j]
				}
			}
		}
		for j := range c.attrMean {
			c.attrMean[j] /= count
		}
		for _, s := range g.Snapshots {
			for i := 0; i < g.N; i++ {
				row := s.X.Row(i)
				for j := 0; j < g.F; j++ {
					d := row[j] - c.attrMean[j]
					c.attrStd[j] += d * d
				}
			}
		}
		for j := range c.attrStd {
			c.attrStd[j] = math.Sqrt(c.attrStd[j]/count) + 1e-9
		}
		// Per-dimension empirical quantile grids: the generation-time
		// observation model maps Gaussian-copula samples through these, so
		// synthetic marginals match the data exactly whatever its shape
		// (bimodal, heavy-tailed, discrete-ish).
		c.attrQuantiles = make([][]float64, g.F)
		vals := make([]float64, 0, g.N*g.T())
		for j := 0; j < g.F; j++ {
			vals = vals[:0]
			for _, s := range g.Snapshots {
				for i := 0; i < g.N; i++ {
					vals = append(vals, s.X.At(i, j))
				}
			}
			sort.Float64s(vals)
			const grid = 257
			q := make([]float64, grid)
			for k := 0; k < grid; k++ {
				pos := float64(k) / float64(grid-1) * float64(len(vals)-1)
				lo := int(pos)
				frac := pos - float64(lo)
				if lo+1 < len(vals) {
					q[k] = vals[lo]*(1-frac) + vals[lo+1]*frac
				} else {
					q[k] = vals[len(vals)-1]
				}
			}
			c.attrQuantiles[j] = q
		}
		// Attribute correlation structure of the data, used by the
		// generation-time observation model.
		corr := make([]float64, g.F*g.F)
		for _, s := range g.Snapshots {
			for i := 0; i < g.N; i++ {
				row := s.X.Row(i)
				for a := 0; a < g.F; a++ {
					for b := 0; b < g.F; b++ {
						corr[a*g.F+b] += (row[a] - c.attrMean[a]) * (row[b] - c.attrMean[b])
					}
				}
			}
		}
		for a := 0; a < g.F; a++ {
			for b := 0; b < g.F; b++ {
				corr[a*g.F+b] /= count * c.attrStd[a] * c.attrStd[b]
			}
		}
		c.attrCorrChol = cholesky(make([]float64, g.F*g.F), tensor.NearestCorrelation(corr, g.F), g.F)
		// Lag-1 autocorrelation per dimension: how much node attributes
		// persist between consecutive snapshots. Matched at generation so
		// the synthetic dynamics track the original's (Figs. 7-8).
		c.attrRho = make([]float64, g.F)
		if g.T() > 1 {
			for j := 0; j < g.F; j++ {
				var num, den float64
				for t := 1; t < g.T(); t++ {
					xp, xc := g.At(t-1).X, g.At(t).X
					for i := 0; i < g.N; i++ {
						a := xp.At(i, j) - c.attrMean[j]
						b := xc.At(i, j) - c.attrMean[j]
						num += a * b
						den += a * a
					}
				}
				if den > 0 {
					c.attrRho[j] = num / den
				}
			}
		}
	}
	// Temporal edge persistence: how often an edge present at t−1 is
	// still present at t. Matched during generation so synthetic hubs and
	// communities persist the way the training data's do.
	var kept, total float64
	for t := 1; t < g.T(); t++ {
		prev, cur := g.At(t-1), g.At(t)
		for u := 0; u < g.N; u++ {
			for _, v := range prev.Out[u] {
				total++
				if cur.HasEdge(u, v) {
					kept++
				}
			}
		}
	}
	if total > 0 {
		c.persistRate = kept / total
	}
	for t, s := range g.Snapshots {
		c.edgeTargets[t] = float64(s.NumEdges())
	}
	return c
}

// residMoments accumulates, during the final training epoch, the moments
// needed to estimate each dimension's decoder↔truth correlation. A VAE
// decoder parameterises the *mean* of the attribute likelihood; the
// squared correlation is its scale-free explanatory power (the scaled
// cosine loss of Eq. 18 deliberately ignores output scale, so a
// variance-ratio R² would be meaningless).
type residMoments struct {
	predSum, predSq []float64 // decoder-output moment sums
	trueSum, trueSq []float64 // ground-truth moment sums
	crossSum        []float64 // decoder×truth cross sums
	count           float64   // samples accumulated into the moments
}

// recordResiduals adds one timestep to the moment accumulator; reset
// starts a fresh final-epoch accumulation.
func (c *calibration) recordResiduals(xHat, x *tensor.Matrix, reset bool) {
	r, f := &c.resid, x.Cols
	if reset || r.predSum == nil {
		*r = residMoments{predSum: make([]float64, f), predSq: make([]float64, f),
			trueSum: make([]float64, f), trueSq: make([]float64, f), crossSum: make([]float64, f)}
	}
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < f; j++ {
			p, tv := xHat.At(i, j), x.At(i, j)
			r.predSum[j] += p
			r.predSq[j] += p * p
			r.trueSum[j] += tv
			r.trueSq[j] += tv * tv
			r.crossSum[j] += p * tv
		}
		r.count++
	}
}

// finalizeResiduals turns the accumulated moments into the per-dimension
// explanatory power R²_j = corr(x̂_j, x_j)², clamped to [0,1]. The
// generation-time observation model mixes the decoder's standardized
// output with correlation-matched noise in these proportions, so an
// undertrained decoder degrades gracefully toward the training data's own
// attribute distribution while a converged decoder dominates the sample.
func (c *calibration) finalizeResiduals(f int) {
	if f == 0 || c.resid.count == 0 {
		return
	}
	c.attrR2 = make([]float64, f)
	n := c.resid.count
	for j := 0; j < f; j++ {
		mp := c.resid.predSum[j] / n
		mt := c.resid.trueSum[j] / n
		vp := c.resid.predSq[j]/n - mp*mp
		vt := c.resid.trueSq[j]/n - mt*mt
		cov := c.resid.crossSum[j]/n - mp*mt
		if vp <= 1e-12 || vt <= 1e-12 {
			continue
		}
		rho := cov / math.Sqrt(vp*vt)
		if rho < 0 {
			rho = 0 // anti-correlated decoding explains nothing usable
		}
		c.attrR2[j] = rho * rho
	}
}

// replay is the persistence seam: it replays each edge of prev out of an
// active node into snap at the training persistence rate, one draw per
// edge, and returns how many it added. A converged model's MixBernoulli
// would regenerate persistent edges itself.
func (c *calibration) replay(snap, prev *dyngraph.Snapshot, active []bool, rng *rand.Rand) float64 {
	persisted := 0.0
	if c != nil && c.persistRate > 0 && prev != nil {
		for u, a := range active {
			if !a {
				continue
			}
			for _, v := range prev.Out[u] {
				if rng.Float64() < c.persistRate && snap.AddEdge(u, v) {
					persisted++
				}
			}
		}
	}
	return persisted
}

// lambda is the density seam: the factor on step t's Bernoulli means (sum
// expected) that makes them, with the persisted edges, expect the training
// edge count of step t (past the last training step the mean; untrained 2n).
func (c *calibration) lambda(t, n int, expected, persisted float64) float64 {
	if c == nil || !(expected > 0) {
		return 1
	}
	target := float64(2 * n)
	if t < len(c.edgeTargets) {
		target = c.edgeTargets[t]
	} else if len(c.edgeTargets) > 0 {
		sum := 0.0
		for _, v := range c.edgeTargets {
			sum += v
		}
		target = sum / float64(len(c.edgeTargets))
	}
	return max(target-persisted, 0) / expected
}

// composes reports whether composeAttrs maps decoded attributes, taking
// observation noise from the main stream, rather than passing them on.
func (c *calibration) composes() bool { return c != nil && c.attrMean != nil }

// composeAttrs is the attribute seam. It turns decoded likelihood means
// into attribute samples with the training sequence's marginal moments,
// cross-dimension correlation, and lag-1 autocorrelation, via a small
// state-space model:
//
//	mix_t = √R²·d̃_t + √(1−R²)·ξ_t          (decoder signal + obs. noise)
//	s_t   = ρ·s_{t−1} + √(1−ρ²)·mix_t       (AR(1) latent state)
//	y_t   = T·s_t,  T = L_x·L_s⁻¹           (output correlation correction)
//	x_t   = µ + σ⊙y_t                       (marginal moments)
//
// d̃ is the decoder output standardized per dimension (its learned
// cross-node ordering survives with weight √R², the decoder's explanatory
// power from the final training epoch); ξ is i.i.d. observation noise; ρ
// is the per-dimension lag-1 autocorrelation of the training data. The
// output map T is recomputed each step from the state's empirical
// correlation L_s·L_sᵀ, so the generated attributes carry the data's
// correlation matrix exactly even when the generation-time decoder output
// is distribution-shifted. A converged decoder (R²→1) passes through up
// to an affine map; an undertrained one degrades gracefully toward the
// data's own attribute process.
//
// It writes the finished attributes into x and returns the updated latent
// state for the next step. noise holds ξ, N×F column-major (element j·N+i);
// sc is the request's F×F working set.
func (c *calibration) composeAttrs(x *tensor.Matrix, prevS *tensor.Matrix, noise []float64, sc *attrScratch) *tensor.Matrix {
	if !c.composes() {
		return prevS
	}
	n, f := x.Rows, x.Cols
	standardizeCols(x) // d̃
	// mix and AR state update.
	state := tensor.Get(n, f)
	for j := 0; j < f; j++ {
		r2, rho := 0.0, 0.0
		if c.attrR2 != nil {
			r2 = c.attrR2[j]
		}
		w, nw := math.Sqrt(r2), math.Sqrt(1-r2)
		if c.attrRho != nil {
			rho = c.attrRho[j]
		}
		if rho < 0 {
			rho = 0
		}
		if rho > 0.995 {
			rho = 0.995
		}
		ar := math.Sqrt(1 - rho*rho)
		for i := 0; i < n; i++ {
			mix := w*x.At(i, j) + nw*noise[j*n+i]
			if prevS == nil {
				state.Set(i, j, mix)
			} else {
				state.Set(i, j, rho*prevS.At(i, j)+ar*mix)
			}
		}
	}
	// Re-standardize the state per dimension: decoder↔state feedback can
	// drift its variance across steps, and the copula map below needs
	// standard-normal coordinates.
	standardizeCols(state)
	// Output correlation correction y = s·Tᵀ with T = L_x·L_s⁻¹.
	tMat := c.outputTransform(state, sc)
	row := sc.row
	for i := 0; i < n; i++ {
		srow := state.Row(i)
		for a := 0; a < f; a++ {
			acc := 0.0
			for b := 0; b < f; b++ {
				acc += tMat[a*f+b] * srow[b]
			}
			row[a] = acc
		}
		xrow := x.Row(i)
		for j := 0; j < f; j++ {
			xrow[j] = c.marginalMap(j, row[j])
		}
	}
	return state
}

// standardizeCols shifts and scales each column of x, in place, to mean 0
// and standard deviation 1 (the deviation taken +1e-9, so a constant
// column maps to 0).
func standardizeCols(x *tensor.Matrix) {
	n, f := x.Rows, x.Cols
	for j := 0; j < f; j++ {
		mean, sd := 0.0, 0.0
		for i := 0; i < n; i++ {
			mean += x.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			d := x.At(i, j) - mean
			sd += d * d
		}
		sd = math.Sqrt(sd/float64(n)) + 1e-9
		for i := 0; i < n; i++ {
			x.Set(i, j, (x.At(i, j)-mean)/sd)
		}
	}
}

// marginalMap sends a standard-normal output coordinate through the
// Gaussian copula onto the training data's empirical marginal: u = Φ(y),
// x = F̂⁻¹(u). Monotone, so rank (Spearman) structure is untouched; exact,
// so synthetic marginals match the data whatever its shape. Falls back to
// the linear moment map when no quantile grid is available.
func (c *calibration) marginalMap(j int, y float64) float64 {
	if c.attrQuantiles == nil || len(c.attrQuantiles[j]) == 0 {
		return c.attrMean[j] + c.attrStd[j]*y
	}
	u := 0.5 * (1 + math.Erf(y/math.Sqrt2))
	q := c.attrQuantiles[j]
	pos := u * float64(len(q)-1)
	lo := int(pos)
	if lo >= len(q)-1 {
		return q[len(q)-1]
	}
	if lo < 0 {
		lo = 0
	}
	frac := pos - float64(lo)
	return q[lo]*(1-frac) + q[lo+1]*frac
}

// attrScratch is composeAttrs' working set for one request: one output
// row and the F×F matrices of the per-step output transform, so that an
// attributed decode step allocates none of them. Each holds only the last
// step's values; ident is the identity and is never written after
// newAttrScratch.
type attrScratch struct {
	row, mean, sd                  []float64 // F
	ident, cov, corr, chol, inv, t []float64 // F×F, row-major
	near                           *tensor.CorrScratch
}

func newAttrScratch(f int) *attrScratch {
	sq := func() []float64 { return make([]float64, f*f) }
	sc := &attrScratch{
		row: make([]float64, f), mean: make([]float64, f), sd: make([]float64, f),
		ident: sq(), cov: sq(), corr: sq(), chol: sq(), inv: sq(), t: sq(),
		near: tensor.NewCorrScratch(f),
	}
	for i := 0; i < f; i++ {
		sc.ident[i*f+i] = 1
	}
	return sc
}

// outputTransform returns T = L_x·L_s⁻¹ where L_x is the Cholesky factor
// of the training attribute correlation and L_s that of the state's
// per-step empirical correlation (identity fallback for degenerate cases).
// T is one of sc's buffers, valid until the next call on sc.
func (c *calibration) outputTransform(state *tensor.Matrix, sc *attrScratch) []float64 {
	n, f := state.Rows, state.Cols
	if c.attrCorrChol == nil || f == 1 || n < 4 {
		return sc.ident
	}
	// Empirical state correlation (state dims have ≈unit variance by
	// construction, but normalise anyway for robustness).
	mean := sc.mean
	clear(mean)
	for i := 0; i < n; i++ {
		for j, v := range state.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	cov := sc.cov
	clear(cov)
	for i := 0; i < n; i++ {
		row := state.Row(i)
		for a := 0; a < f; a++ {
			for b := 0; b < f; b++ {
				cov[a*f+b] += (row[a] - mean[a]) * (row[b] - mean[b])
			}
		}
	}
	sd := sc.sd
	for j := 0; j < f; j++ {
		sd[j] = math.Sqrt(cov[j*f+j]/float64(n)) + 1e-12
	}
	corr := sc.corr
	for a := 0; a < f; a++ {
		for b := 0; b < f; b++ {
			corr[a*f+b] = cov[a*f+b] / float64(n) / (sd[a] * sd[b])
		}
	}
	ls := cholesky(sc.chol, sc.near.Nearest(corr), f)
	lsInv := invertLowerTriangular(sc.inv, ls, f)
	if lsInv == nil {
		return sc.ident
	}
	// T = L_x · L_s⁻¹
	t := sc.t
	for a := 0; a < f; a++ {
		for b := 0; b < f; b++ {
			acc := 0.0
			for k := 0; k < f; k++ {
				acc += c.attrCorrChol[a*f+k] * lsInv[k*f+b]
			}
			t[a*f+b] = acc
		}
	}
	return t
}

// encodeAttrs standardises snap's observed attributes with the training
// moments into st's attribute AR(1) state, the coordinates composeAttrs
// evolves it in. It runs whatever DegreeCalibration says, once the moments
// are captured (the model was trained on attributed data).
func (c *calibration) encodeAttrs(st *ForecastState, snap *dyngraph.Snapshot, n, f int) {
	if snap.X == nil || c.attrMean == nil || f == 0 {
		return
	}
	if st.attrState == nil {
		st.attrState = tensor.Get(n, f)
	}
	for i := 0; i < snap.N; i++ {
		row, obs := st.attrState.Row(i), snap.X.Row(i)
		for j := 0; j < f; j++ {
			row[j] = (obs[j] - c.attrMean[j]) / c.attrStd[j]
		}
	}
}

// cholesky writes into l (f×f) and returns the lower-triangular factor L
// with LLᵀ = cov, adding diagonal jitter until the factorisation succeeds.
func cholesky(l, cov []float64, f int) []float64 {
	jitter := 0.0
	for attempt := 0; attempt < 4; attempt++ { // jitter caps at 1e-4: beyond that the input is genuinely indefinite
		clear(l)
		ok := true
		for i := 0; i < f && ok; i++ {
			for j := 0; j <= i; j++ {
				sum := cov[i*f+j]
				if i == j {
					sum += jitter
				}
				for k := 0; k < j; k++ {
					sum -= l[i*f+k] * l[j*f+k]
				}
				if i == j {
					if sum <= 0 {
						ok = false
						break
					}
					l[i*f+i] = math.Sqrt(sum)
				} else {
					l[i*f+j] = sum / l[j*f+j]
				}
			}
		}
		if ok {
			return l
		}
		if jitter == 0 {
			jitter = 1e-8
		} else {
			jitter *= 100
		}
	}
	// Fall back to a diagonal factor.
	clear(l)
	for i := 0; i < f; i++ {
		v := cov[i*f+i]
		if v < 0 {
			v = 0
		}
		l[i*f+i] = math.Sqrt(v)
	}
	return l
}

// invertLowerTriangular inverts a lower-triangular matrix by forward
// substitution into inv (f×f); returns nil when a diagonal entry is (near)
// zero.
func invertLowerTriangular(inv, l []float64, f int) []float64 {
	clear(inv)
	for c := 0; c < f; c++ {
		if math.Abs(l[c*f+c]) < 1e-12 {
			return nil
		}
		inv[c*f+c] = 1 / l[c*f+c]
		for r := c + 1; r < f; r++ {
			acc := 0.0
			for k := c; k < r; k++ {
				acc += l[r*f+k] * inv[k*f+c]
			}
			inv[r*f+c] = -acc / l[r*f+r]
		}
	}
	return inv
}
