package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// TrainStats reports per-epoch training progress.
type TrainStats struct {
	Epoch     int
	Loss      float64 // total ELBO loss
	StrucLoss float64
	AttrLoss  float64
	KLLoss    float64
	GradNorm  float64
}

// FitOption customises training.
type FitOption func(*fitOpts)

type fitOpts struct {
	progress func(TrainStats)
}

// WithProgress installs a per-epoch callback.
func WithProgress(f func(TrainStats)) FitOption {
	return func(o *fitOpts) { o.progress = f }
}

// Fit trains the model on an observed dynamic attributed graph by
// maximising the step-wise ELBO of Eq. (14) with backpropagation through
// time, over the full sequence or truncated to windows of Cfg.TBPTT
// snapshots. It returns the stats of the final epoch.
func (m *Model) Fit(g *dyngraph.Sequence, opts ...FitOption) (TrainStats, error) {
	return m.FitContext(context.Background(), g, opts...)
}

// FitContext is Fit with cooperative cancellation, the same contract the
// generation engine offers: ctx is checked once per epoch, before the
// epoch starts, so a long training run started from tooling stops within
// one epoch of the caller cancelling. On cancellation the stats of the
// last completed epoch are returned together with the context's error, and
// the model stays untrained (Trained reports false) because the
// generation-time calibration statistics of the final epoch were never
// captured.
func (m *Model) FitContext(ctx context.Context, g *dyngraph.Sequence, opts ...FitOption) (TrainStats, error) {
	var o fitOpts
	for _, opt := range opts {
		opt(&o)
	}
	if g.N != m.Cfg.N {
		return TrainStats{}, fmt.Errorf("core: sequence has N=%d, model configured for N=%d", g.N, m.Cfg.N)
	}
	if g.F != m.Cfg.F {
		return TrainStats{}, fmt.Errorf("core: sequence has F=%d, model configured for F=%d", g.F, m.Cfg.F)
	}
	if g.T() == 0 {
		return TrainStats{}, fmt.Errorf("core: cannot fit on an empty sequence")
	}

	m.captureStats(g)

	// Crash-safe resume: with Cfg.CheckpointPath set, pick up an
	// interrupted run at its last persisted epoch boundary and write a
	// fresh atomic checkpoint every few epochs. See checkpoint.go for why
	// epoch boundaries make the resumed run bit-identical.
	startEpoch := 0
	if m.Cfg.CheckpointPath != "" {
		e, err := m.tryResumeFit(fitFS)
		if err != nil {
			return TrainStats{}, err
		}
		startEpoch = e
	}

	var last TrainStats
	for epoch := startEpoch; epoch < m.Cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		stats, err := m.runEpoch(g, epoch)
		if err != nil {
			return stats, err
		}
		if m.Cfg.CheckpointPath != "" && epoch+1 < m.Cfg.Epochs && (epoch+1)%m.checkpointEvery() == 0 {
			if err := m.writeFitCheckpoint(fitFS, epoch+1); err != nil {
				return stats, err
			}
		}
		if o.progress != nil {
			o.progress(stats)
		}
		last = stats
	}
	m.finalizeResiduals()
	m.trained = true
	if m.Cfg.CheckpointPath != "" {
		m.removeFitCheckpoint(fitFS)
	}
	return last, nil
}

// captureStats records the per-step edge counts and node activation
// statistics used by generation-time calibration and the node add/delete
// extension.
func (m *Model) captureStats(g *dyngraph.Sequence) {
	m.edgeTargets = make([]float64, g.T())
	m.activeStats = make([]float64, g.T())
	if g.F > 0 {
		m.attrMean = make([]float64, g.F)
		m.attrStd = make([]float64, g.F)
		count := float64(g.N * g.T())
		for _, s := range g.Snapshots {
			for i := 0; i < g.N; i++ {
				row := s.X.Row(i)
				for j := 0; j < g.F; j++ {
					m.attrMean[j] += row[j]
				}
			}
		}
		for j := range m.attrMean {
			m.attrMean[j] /= count
		}
		for _, s := range g.Snapshots {
			for i := 0; i < g.N; i++ {
				row := s.X.Row(i)
				for j := 0; j < g.F; j++ {
					d := row[j] - m.attrMean[j]
					m.attrStd[j] += d * d
				}
			}
		}
		for j := range m.attrStd {
			m.attrStd[j] = math.Sqrt(m.attrStd[j]/count) + 1e-9
		}
		// Per-dimension empirical quantile grids: the generation-time
		// observation model maps Gaussian-copula samples through these, so
		// synthetic marginals match the data exactly whatever its shape
		// (bimodal, heavy-tailed, discrete-ish).
		m.attrQuantiles = make([][]float64, g.F)
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
			m.attrQuantiles[j] = q
		}
		// Attribute correlation structure of the data, used by the
		// generation-time observation model.
		corr := make([]float64, g.F*g.F)
		count2 := float64(g.N * g.T())
		for _, s := range g.Snapshots {
			for i := 0; i < g.N; i++ {
				row := s.X.Row(i)
				for a := 0; a < g.F; a++ {
					for b := 0; b < g.F; b++ {
						corr[a*g.F+b] += (row[a] - m.attrMean[a]) * (row[b] - m.attrMean[b])
					}
				}
			}
		}
		for a := 0; a < g.F; a++ {
			for b := 0; b < g.F; b++ {
				corr[a*g.F+b] /= count2 * m.attrStd[a] * m.attrStd[b]
			}
		}
		m.attrCorr = corr
		m.attrCorrChol = cholesky(tensor.NearestCorrelation(corr, g.F), g.F)
		// Lag-1 autocorrelation per dimension: how much node attributes
		// persist between consecutive snapshots. Matched at generation so
		// the synthetic dynamics track the original's (Figs. 7-8).
		m.attrRho = make([]float64, g.F)
		if g.T() > 1 {
			for j := 0; j < g.F; j++ {
				var num, den float64
				for t := 1; t < g.T(); t++ {
					xp, xc := g.At(t-1).X, g.At(t).X
					for i := 0; i < g.N; i++ {
						a := xp.At(i, j) - m.attrMean[j]
						b := xc.At(i, j) - m.attrMean[j]
						num += a * b
						den += a * a
					}
				}
				if den > 0 {
					m.attrRho[j] = num / den
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
		m.persistRate = kept / total
	}
	seen := make([]bool, g.N)
	for t, s := range g.Snapshots {
		m.edgeTargets[t] = float64(s.NumEdges())
		newly := 0
		for v := 0; v < g.N; v++ {
			if !seen[v] && (s.OutDegree(v) > 0 || s.InDegree(v) > 0) {
				seen[v] = true
				newly++
			}
		}
		m.activeStats[t] = float64(newly)
	}
}

// runEpoch performs one epoch over the sequence: a single full-sequence
// backpropagation-through-time pass, or several truncated windows when
// Cfg.TBPTT is set (hidden state values carry across windows; gradients do
// not). Returns loss statistics aggregated over the epoch.
func (m *Model) runEpoch(g *dyngraph.Sequence, epoch int) (TrainStats, error) {
	n := g.N
	window := m.Cfg.TBPTT
	if window <= 0 || window > g.T() {
		window = g.T()
	}

	hVal := tensor.New(n, m.Cfg.HiddenDim) // H_0 = 0
	agg := TrainStats{Epoch: epoch}
	windows := 0

	// One tape serves every window of every epoch: Reset returns all op
	// outputs and gradient buffers to the pooled arena, so after the first
	// window the forward/backward pass runs allocation-free. Backward
	// releases dead intermediates mid-sweep, so the window's peak footprint
	// is a fraction of its recorded size.
	if m.tape == nil {
		m.tape = tensor.NewTape()
		if plainTape {
			m.tape = tensor.NewReferenceTape()
		}
	}
	tape := m.tape
	// A previous epoch aborted by an error may have left recordings behind.
	tape.Reset()

	for start := 0; start < g.T(); start += window {
		end := start + window
		if end > g.T() {
			end = g.T()
		}
		c := nn.NewTrainCtx(tape, m.adam)
		h := tape.Const(hVal)
		var strucTerms, attrTerms, klTerms []*tensor.Node

		for t := start; t < end; t++ {
			snap := g.At(t)
			encSnap := snap
			if m.Cfg.NeighborSample > 0 {
				encSnap = snap.SampleNeighbors(m.Cfg.NeighborSample, m.rng)
			}

			// Encode the observed snapshot (bi-flow GNN, Eq. 5-7).
			eps := m.enc.Encode(c, encSnap)

			// Posterior and prior latent distributions (Eq. 3-4, 8-9).
			muQ, logSigQ := m.posterior(c, eps, h)
			muP, logSigP := m.prior(c, h)
			klTerms = append(klTerms, tape.Scale(tape.GaussianKL(muQ, logSigQ, muP, logSigP),
				1/float64(n*m.Cfg.LatentDim)))

			// z ~ q via the reparameterization trick; S_t = [Z_t ‖ H_{t-1}].
			z := reparameterize(tape, muQ, logSigQ, m.rng)
			s := tape.ConcatCols(z, h)

			// Structure reconstruction (Eq. 17) on positive edges plus Q
			// sampled negatives per node.
			esrc, edst := snap.EdgeLists()
			src, dst, targets := m.samplePairs(snap, esrc, edst, m.rng)
			if len(src) > 0 {
				p := m.mixBernoulliProb(c, s, src, dst, n)
				strucTerms = append(strucTerms, tape.BCEProb(p, targets))
			}

			// Attribute reconstruction (Eq. 18) with teacher forcing on the
			// observed adjacency.
			if m.Cfg.F > 0 {
				dec := m.gat.Apply(c, s, esrc, edst, n)
				xHat := m.attrMLP.Apply(c, dec)
				if m.Cfg.UseSCE {
					attrTerms = append(attrTerms, tape.SCELoss(xHat, snap.X, m.Cfg.SCEAlpha))
				} else {
					attrTerms = append(attrTerms, tape.MSELoss(xHat, snap.X))
				}
				if epoch == m.Cfg.Epochs-1 {
					m.recordResiduals(xHat.Value, snap.X, t == 0)
				}
			}

			// Recurrence update (Section III-D): H_t = GRU([ε‖z‖fT(t)], H_{t-1}).
			h = m.gru.Step(c, m.gruInput(c, eps, z, t, n), h)
		}

		sum := func(terms []*tensor.Node) *tensor.Node {
			if len(terms) == 0 {
				return tape.Const(tensor.New(1, 1))
			}
			acc := terms[0]
			for _, t := range terms[1:] {
				acc = tape.Add(acc, t)
			}
			return tape.Scale(acc, 1/float64(len(terms)))
		}
		struc := sum(strucTerms)
		attr := sum(attrTerms)
		kl := sum(klTerms)
		loss := tape.Add(tape.Add(struc, attr), tape.Scale(kl, m.Cfg.KLWeight))
		// The loss components are read for the epoch stats after Backward,
		// so Backward must not release them; h is read for the next
		// window's detached state.
		tape.Keep(struc, attr, kl, loss, h)

		lv := loss.Value.Data[0]
		if math.IsNaN(lv) || math.IsInf(lv, 0) {
			tape.Reset()
			return TrainStats{}, fmt.Errorf("core: non-finite loss at epoch %d", epoch)
		}

		tape.Backward(loss)
		c.Flush()
		norm := m.adam.Step()

		// Detach the hidden state for the next window.
		hVal = h.Value.Clone()

		agg.Loss += lv
		agg.StrucLoss += struc.Value.Data[0]
		agg.AttrLoss += attr.Value.Data[0]
		agg.KLLoss += kl.Value.Data[0]
		agg.GradNorm += norm
		windows++

		// Everything read out of the window (loss terms, detached state,
		// accumulated gradients) has been copied; recycle the tape buffers.
		tape.Reset()
	}
	if windows > 0 {
		w := float64(windows)
		agg.Loss /= w
		agg.StrucLoss /= w
		agg.AttrLoss /= w
		agg.KLLoss /= w
		agg.GradNorm /= w
	}
	return agg, nil
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

func (r *residMoments) reset() { *r = residMoments{} }

func (r *residMoments) init(f int) {
	r.predSum = make([]float64, f)
	r.predSq = make([]float64, f)
	r.trueSum = make([]float64, f)
	r.trueSq = make([]float64, f)
	r.crossSum = make([]float64, f)
	r.count = 0
}

func (r *residMoments) record(xHat, x *tensor.Matrix) {
	f := x.Cols
	if r.predSum == nil {
		r.init(f)
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

// recordResiduals adds one timestep to the moment accumulator; reset
// starts a fresh final-epoch accumulation.
func (m *Model) recordResiduals(xHat, x *tensor.Matrix, reset bool) {
	if reset {
		m.resid.reset()
	}
	m.resid.record(xHat, x)
}

// finalizeResiduals turns the accumulated moments into the per-dimension
// explanatory power R²_j = corr(x̂_j, x_j)², clamped to [0,1]. The
// generation-time observation model mixes the decoder's standardized
// output with correlation-matched noise in these proportions, so an
// undertrained decoder degrades gracefully toward the training data's own
// attribute distribution while a converged decoder dominates the sample.
func (m *Model) finalizeResiduals() {
	f := m.Cfg.F
	if f == 0 || m.resid.count == 0 {
		return
	}
	m.attrR2 = make([]float64, f)
	c := m.resid.count
	for j := 0; j < f; j++ {
		mp := m.resid.predSum[j] / c
		mt := m.resid.trueSum[j] / c
		vp := m.resid.predSq[j]/c - mp*mp
		vt := m.resid.trueSq[j]/c - mt*mt
		cov := m.resid.crossSum[j]/c - mp*mt
		if vp <= 1e-12 || vt <= 1e-12 {
			continue
		}
		rho := cov / math.Sqrt(vp*vt)
		if rho < 0 {
			rho = 0 // anti-correlated decoding explains nothing usable
		}
		m.attrR2[j] = rho * rho
	}
}

// cholesky returns the lower-triangular factor L with LLᵀ = cov, adding
// diagonal jitter until the factorisation succeeds.
func cholesky(cov []float64, f int) []float64 {
	jitter := 0.0
	for attempt := 0; attempt < 4; attempt++ { // jitter caps at 1e-4: beyond that the input is genuinely indefinite
		l := make([]float64, f*f)
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
	l := make([]float64, f*f)
	for i := 0; i < f; i++ {
		v := cov[i*f+i]
		if v < 0 {
			v = 0
		}
		l[i*f+i] = math.Sqrt(v)
	}
	return l
}

// gruInput assembles [ε ‖ z ‖ fT(t)] (time component optional).
func (m *Model) gruInput(c *nn.Ctx, eps, z *tensor.Node, t, n int) *tensor.Node {
	tape := c.Tape
	if !m.Cfg.UseTime2Vec {
		return tape.ConcatCols(eps, z)
	}
	ft := m.t2v.Encode(c, float64(t))
	idx := make([]int, n) // broadcast the 1×dT row to N rows
	return tape.ConcatCols(eps, z, tape.GatherRows(ft, idx))
}

// samplePairs returns the training pairs for the structure loss: the
// snapshot's positive edges (esrc, edst — its EdgeLists, which the caller
// also feeds to the attribute decoder) plus NegSamples random non-edges per
// node, drawn from rng.
func (m *Model) samplePairs(s *dyngraph.Snapshot, esrc, edst []int, rng *rand.Rand) (src, dst []int, targets *tensor.Matrix) {
	n := s.N
	size := len(esrc) + n*m.Cfg.NegSamples
	src = append(make([]int, 0, size), esrc...)
	dst = append(make([]int, 0, size), edst...)
	for i := 0; i < n; i++ {
		for q := 0; q < m.Cfg.NegSamples; q++ {
			j := rng.Intn(n)
			if j == i || s.HasEdge(i, j) {
				continue // keep the pair count stochastic but unbiased
			}
			src = append(src, i)
			dst = append(dst, j)
		}
	}
	targets = tensor.New(len(src), 1)
	for k := range esrc {
		targets.Data[k] = 1
	}
	return src, dst, targets
}

// mixBernoulliProb computes, on the tape, the edge probability of Eq. (11)
// for each (src[k], dst[k]) pair:
//
//	p_k = Σ_K α_{K,src} · θ_{K,(src,dst)}
//
// where θ = sigmoid(f_θ(s_i − s_j)) and the component weights α_i =
// softmax(Σ_j f_α(s_i − s_j)) aggregate over the sampled pairs of node i.
// The layout is the decode's (decode.go): both heads' linear first layers
// run once over the N nodes, P = S·[W₁θ ‖ W₁α], and each head's hidden
// block is built from Pᵀ with the E pairs on the column axis, so the
// K-wide second layer is K rows of E columns — the axis every
// tensor.Backend vectorises — forward and in both backward products.
func (m *Model) mixBernoulliProb(c *nn.Ctx, s *tensor.Node, src, dst []int, n int) *tensor.Node {
	tape := c.Tape
	w1 := tape.ConcatCols(c.Var(m.fTheta.Layers[0].W), c.Var(m.fAlpha.Layers[0].W))
	pT := tape.Transpose(tape.MatMul(s, w1)) // 2d_h×N, θ rows first
	logits := func(f *nn.MLP, head int) *tensor.Node {
		l1, l2 := f.Layers[0], f.Layers[1]
		hidT := tape.PairDiffT(pT, c.Var(l1.B), head*l1.Out, src, dst, f.Hidden.Fused()) // d_h×E
		outT := tape.MatMul(tape.Transpose(c.Var(l2.W)), hidT)                           // K×E
		return tape.AddRowVec(tape.Transpose(outT), c.Var(l2.B))                         // E×K
	}
	theta := tape.Sigmoid(logits(m.fTheta, headTheta))
	alphaLogits := tape.ScatterAddRows(logits(m.fAlpha, headAlpha), src, n)
	alpha := tape.SoftmaxRows(alphaLogits)       // N×K
	alphaE := tape.GatherRows(alpha, src)        // E×K
	return tape.SumRows(tape.Mul(alphaE, theta)) // E×1
}
