package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

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

// fitReturned is set by every FitContext exit and cleared by the first
// inference after it (inferenceStarts). While it is set the tensor arena
// keeps its free buffers resident, so back-to-back fits reuse one another's
// peak without a page fault.
var fitReturned atomic.Bool

// inferenceStarts runs where generation, streaming, forecasting and
// prefix encoding start. The first of them after a Fit returns hands the
// arena's free buffers back to the OS (tensor.ReleaseFree): a trained
// model's requests need a small fraction of what training kept, and a
// process that trains once and then serves would otherwise keep training's
// peak resident for its whole life.
func inferenceStarts() {
	// Load first: EncodeSnapshot runs once per ingested snapshot, and even
	// a failing CompareAndSwap takes the flag's cache line exclusively.
	if fitReturned.Load() && fitReturned.CompareAndSwap(true, false) {
		tensor.ReleaseFree()
	}
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
	defer fitReturned.Store(true)
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

	m.cal = newCalibration(g)
	m.activeStats = make([]float64, g.T()) // first-time active nodes per step
	seen := make([]bool, g.N)
	for t, s := range g.Snapshots {
		for v := 0; v < g.N; v++ {
			if !seen[v] && (s.OutDegree(v) > 0 || s.InDegree(v) > 0) {
				seen[v] = true
				m.activeStats[t]++
			}
		}
	}

	// One tape serves every window of every epoch: Reset returns all op
	// outputs and gradient buffers to the pooled arena, so after the first
	// window the forward/backward pass runs allocation-free. Backward
	// releases dead intermediates mid-sweep, so the window's peak footprint
	// is a fraction of its recorded size.
	if m.tape == nil {
		m.tape = newTrainTape()
	}
	fs := m.newFitScratch(g)
	defer tensor.Put(fs.h)

	var last TrainStats
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return last, err
		}
		stats, err := m.runEpoch(fs, g, epoch)
		if err != nil {
			return stats, err
		}
		if o.progress != nil {
			o.progress(stats)
		}
		last = stats
	}
	m.cal.finalizeResiduals(m.Cfg.F)
	m.trained = true
	return last, nil
}

// fitScratch is what one fit's windows reuse from one to the next instead
// of allocating it again. FitContext builds it and drops it on return, so
// a trained model carries none of it.
type fitScratch struct {
	// h is the detached hidden state a window starts from and leaves for
	// the next (pooled, N×d_h).
	h *tensor.Matrix
	// zeros holds one 0 per node: gruInput broadcasts fT(t) with it.
	zeros []int
	// ctx is the main tape's context, branchCtx[k] that of m.branchTapes[k].
	ctx       *nn.Ctx
	branchCtx []*nn.Ctx
	// steps backs every window's steps; each keeps its index lists'
	// capacity for the step at the same place in the next window.
	steps []windowStep
}

func (m *Model) newFitScratch(g *dyngraph.Sequence) *fitScratch {
	fs := &fitScratch{
		h:   tensor.Get(g.N, m.Cfg.HiddenDim),
		ctx: nn.NewTrainCtx(m.tape, m.adam),
	}
	if m.Cfg.UseTime2Vec {
		fs.zeros = make([]int, g.N)
	}
	return fs
}

// runEpoch performs one epoch over the sequence: a single full-sequence
// backpropagation-through-time pass, or several truncated windows when
// Cfg.TBPTT is set (hidden state values carry across windows; gradients do
// not). Returns loss statistics aggregated over the epoch.
func (m *Model) runEpoch(fs *fitScratch, g *dyngraph.Sequence, epoch int) (TrainStats, error) {
	window := m.Cfg.TBPTT
	if window <= 0 || window > g.T() {
		window = g.T()
	}

	fs.h.Zero() // H_0 = 0
	agg := TrainStats{Epoch: epoch}
	windows := 0

	for start := 0; start < g.T(); start += window {
		end := min(start+window, g.T())
		ws, err := m.runWindow(fs, g, epoch, start, end)
		if err != nil {
			return TrainStats{}, err
		}
		agg.Loss += ws.Loss
		agg.StrucLoss += ws.StrucLoss
		agg.AttrLoss += ws.AttrLoss
		agg.KLLoss += ws.KLLoss
		agg.GradNorm += ws.GradNorm
		windows++
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

// runWindow trains on snapshots [start, end) from the detached hidden state
// fs.h: one forward pass, one backward sweep, one Adam step. The encoder
// and the decoder losses of each step record on branches of their own,
// which this goroutine and one worker run from a task pool (branch.go). It
// returns the window's loss terms and gradient norm, and leaves in fs.h
// the hidden state to carry into the next window.
//
// The trained bits are those of one tape on one goroutine, whichever
// goroutine ran a task: every task records and sweeps a tape and context
// of its own, the parameters are read-only until the Adam step, and the
// arena and the snapshots' CSR caches are goroutine-safe. Points 1-4 below
// give the rest.
func (m *Model) runWindow(fs *fitScratch, g *dyngraph.Sequence, epoch, start, end int) (TrainStats, error) {
	n := g.N
	tape, c := m.tape, fs.ctx
	steps := m.drawWindow(fs, g, start, end)
	pool := startTaskPool()
	// Every exit — success, a non-finite loss, a panic in a task or on this
	// goroutine — stops the pool before any tape is reset, since a task may
	// still be reading a value off another tape.
	defer func() {
		pool.stop()
		for _, st := range steps {
			if st.noise != nil { // drawn for a step the loop never reached
				tensor.Put(st.noise)
			}
			tensor.Put(st.targets)
		}
		for _, bt := range m.branchTapes {
			bt.Reset()
		}
		tape.Reset()
	}()

	for i := range steps {
		st := &steps[i]
		e := &encoderBranch{branch: m.newBranch(fs, 2*i)}
		e.fwd = pool.submit(func() { e.out = m.enc.Encode(e.c, st.encSnap) })
		st.enc = e
	}

	residuals := epoch == m.Cfg.Epochs-1
	h := tape.Const(fs.h)
	var klTerms []*tensor.Node
	for i := range steps {
		st, e := &steps[i], steps[i].enc

		// The encoder's output (bi-flow GNN, Eq. 5-7), as a leaf.
		pool.await(e.fwd)
		eps := tape.Var(e.out.Value)
		// 2. ε_t's gradient. The hook runs once the GRU's gates and then
		// the posterior's hidden layer have added into the leaf's zeroed
		// gradient, exactly as they added into ε_t's node on one tape.
		// Seeding the encoder's output with it is exact
		// (Node.AccumulateGrad: a sum started at +0 is never −0).
		tape.Hook(func() {
			e.out.AccumulateGrad(eps.Grad)
			tape.ReleaseGrad(eps)
			e.bwd = pool.submit(e.tape.BackwardSeeded)
		})

		// Posterior and prior latent distributions (Eq. 3-4, 8-9).
		muQ, logSigQ := m.posterior(c, eps, h)
		muP, logSigP := m.prior(c, h)
		klTerms = append(klTerms, tape.Scale(tape.GaussianKL(muQ, logSigQ, muP, logSigP),
			1/float64(n*m.Cfg.LatentDim)))

		// z ~ q via the reparameterization trick; S_t = [Z_t ‖ H_{t-1}].
		z := reparameterize(tape, muQ, logSigQ, st.noise)
		st.noise = nil
		s := tape.ConcatCols(z, h)

		// Structure (Eq. 17) and attribute (Eq. 18) reconstruction.
		if len(st.src) > 0 || m.Cfg.F > 0 {
			d := &decoderBranch{branch: m.newBranch(fs, 2*i+1)}
			d.leaf = d.tape.Var(s.Value)
			d.fwd = pool.submit(func() { m.decode(d, st, residuals) })
			st.dec = d
			// S_t's gradient crosses back like ε_t's: the decoder tape
			// records the structure, then the attribute loss, as one tape
			// did, so the leaf's gradient is the old sum, and adding it
			// into S_t's fresh gradient is exact.
			tape.Hook(func() { // join: S_t's gradient is the leaf's
				pool.await(d.bwd)
				s.AccumulateGrad(d.leaf.Grad)
				d.tape.ReleaseGrad(d.leaf)
			})
		}

		// Recurrence update (Section III-D): H_t = GRU([ε‖z‖fT(t)], H_{t-1}).
		var in [3]*tensor.Node
		h = m.gru.Step(c, h, m.gruInput(in[:0], c, eps, z, st.t, fs.zeros)...)
	}

	var strucTerms, attrTerms []*tensor.Node
	for _, st := range steps {
		d := st.dec
		if d == nil {
			continue
		}
		pool.await(d.fwd)
		// 4. Residual moments, summed in step order.
		if d.xHat != nil {
			m.cal.recordResiduals(d.xHat.Value, st.snap.X, st.t == 0)
		}
		var ps, pa *tensor.Node
		tape.Hook(func() { // dispatch: the proxies hold their gradients now
			if ps != nil {
				d.struc.AccumulateGrad(ps.Grad)
				tape.ReleaseGrad(ps)
			}
			if pa != nil {
				d.attr.AccumulateGrad(pa.Grad)
				tape.ReleaseGrad(pa)
			}
			d.bwd = pool.submit(d.tape.BackwardSeeded)
		})
		if d.struc != nil {
			ps = tape.Var(d.struc.Value)
			strucTerms = append(strucTerms, ps)
		}
		if d.attr != nil {
			pa = tape.Var(d.attr.Value)
			attrTerms = append(attrTerms, pa)
		}
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
	loss := tape.Add(tape.Add(struc, attr), tape.Scale(kl, klWeight))
	// The loss components are read for the epoch stats after Backward, so
	// Backward must not release them; h is read for the next window's
	// detached state.
	tape.Keep(struc, attr, kl, loss, h)

	lv := loss.Value.Data[0]
	if math.IsNaN(lv) || math.IsInf(lv, 0) {
		return TrainStats{}, fmt.Errorf("core: non-finite loss at epoch %d", epoch)
	}

	tape.Backward(loss)
	// 3. Parameter gradients. The encoder's parameters appear only in the
	// encoder branches, fTheta, fAlpha, gat and attrMLP only in the
	// decoder branches. Flushing the main context, then the branches in
	// the order one tape recorded them (nn.FlushOrdered, which panics if a
	// parameter is in main and a branch), delivers each parameter's
	// per-step gradients to Adam in step order; it would stay exact if a
	// weight were shared between encoder and decoder.
	ctxs := make([]*nn.Ctx, 0, 2*len(steps))
	for _, st := range steps {
		pool.await(st.enc.bwd)
		ctxs = append(ctxs, st.enc.c)
		if st.dec != nil {
			ctxs = append(ctxs, st.dec.c)
		}
	}
	nn.FlushOrdered(c, ctxs)
	ws := TrainStats{
		Loss:      lv,
		StrucLoss: struc.Value.Data[0],
		AttrLoss:  attr.Value.Data[0],
		KLLoss:    kl.Value.Data[0],
		GradNorm:  m.adam.Step(),
	}
	// Detach the hidden state for the next window: every task is done, so
	// nothing reads fs.h again. The deferred Reset recycles everything
	// else.
	copy(fs.h.Data, h.Value.Data)
	return ws, nil
}

// drawWindow makes every m.rng draw of the window [start, end) before any
// task is submitted.
//
// 1. Draws. Per step, in the order one goroutine made them: the encoder's
// neighbour sample, the N×d_z reparameterisation noise, the negative
// pairs. None of their counts depends on a parameter value, so drawing
// them up front reads the same stream in the same order.
//
// The steps are fs.steps, each reset but for its index lists' capacity.
func (m *Model) drawWindow(fs *fitScratch, g *dyngraph.Sequence, start, end int) []windowStep {
	if len(fs.steps) < end-start {
		fs.steps = append(fs.steps, make([]windowStep, end-start-len(fs.steps))...)
	}
	steps := fs.steps[:end-start]
	for i := range steps {
		st := &steps[i]
		*st = windowStep{t: start + i, esrc: st.esrc, edst: st.edst, src: st.src, dst: st.dst}
		st.snap = g.At(st.t)
		st.encSnap = st.snap
		if m.Cfg.NeighborSample > 0 {
			st.encSnap = st.snap.SampleNeighbors(m.Cfg.NeighborSample, m.rng)
		}
		st.noise = tensor.Get(g.N, m.Cfg.LatentDim)
		for k := range st.noise.Data {
			st.noise.Data[k] = m.rng.NormFloat64()
		}
		// The attribute decoder's GAT appends its N self-loops in place.
		st.esrc, st.edst = st.snap.EdgeLists(st.esrc, st.edst, g.N)
		st.src, st.dst, st.targets = m.samplePairs(st.snap, st.esrc, st.edst, st.src, st.dst, m.rng)
	}
	return steps
}

// newTrainTape returns a training tape: the releasing default, or the
// reference tape when plainTape is set.
func newTrainTape() *tensor.Tape {
	if plainTape {
		return tensor.NewReferenceTape()
	}
	return tensor.NewTape()
}

// gruInput appends to in the parts of the GRU input [ε ‖ z ‖ fT(t)]
// (time component optional), which the gates read in place
// (nn.GRUCell.Step). zeros holds one 0 per node, the index that
// broadcasts the 1×dT row fT(t) to N rows; nil allocates it.
func (m *Model) gruInput(in []*tensor.Node, c *nn.Ctx, eps, z *tensor.Node, t int, zeros []int) []*tensor.Node {
	in = append(in, eps, z)
	if !m.Cfg.UseTime2Vec {
		return in
	}
	if zeros == nil {
		zeros = make([]int, eps.Value.Rows)
	}
	return append(in, c.Tape.GatherRows(m.t2v.Encode(c, float64(t)), zeros))
}

// samplePairs returns the training pairs for the structure loss: the
// snapshot's positive edges (esrc, edst — its EdgeLists, which the caller
// also feeds to the attribute decoder) plus NegSamples random non-edges per
// node, drawn from rng. The pairs are written into src and dst, whose
// backing arrays are reused when they have the room. targets, 1 on the
// positive edges and 0 on the rest, is from the arena: the caller returns
// it with tensor.Put.
func (m *Model) samplePairs(s *dyngraph.Snapshot, esrc, edst, src, dst []int, rng *rand.Rand) ([]int, []int, *tensor.Matrix) {
	n := s.N
	if size := len(esrc) + n*m.Cfg.NegSamples; cap(src) < size || cap(dst) < size {
		src, dst = make([]int, 0, size), make([]int, 0, size)
	}
	src = append(src[:0], esrc...)
	dst = append(dst[:0], edst...)
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
	targets := tensor.Get(len(src), 1)
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
// run once over the N nodes, P = S·[W₁θ ‖ W₁α], and each head is one
// tensor.Tape.PairMLP node over its half of P's columns, which keeps only
// the E×K logits and recomputes the hidden units in the backward sweep.
func (m *Model) mixBernoulliProb(c *nn.Ctx, s *tensor.Node, src, dst []int, n int) *tensor.Node {
	tape := c.Tape
	w1 := tape.ConcatCols(c.Var(m.fTheta.Layers[0].W), c.Var(m.fAlpha.Layers[0].W))
	p := tape.MatMul(s, w1) // N×2d_h, θ columns first
	logits := func(f *nn.MLP, head int) *tensor.Node {
		if f.Hidden != tensor.ActLeakyReLU {
			panic("core: the Eq. 11 pair op implements LeakyReLU hidden layers only")
		}
		l1, l2 := f.Layers[0], f.Layers[1]
		return tape.PairMLP(p, c.Var(l1.B), c.Var(l2.W), c.Var(l2.B), head*l1.Out, src, dst) // E×K
	}
	theta := tape.Sigmoid(logits(m.fTheta, headTheta))
	alphaLogits := tape.ScatterAddRows(logits(m.fAlpha, headAlpha), src, n)
	alpha := tape.SoftmaxRows(alphaLogits)       // N×K
	alphaE := tape.GatherRows(alpha, src)        // E×K
	return tape.SumRows(tape.Mul(alphaE, theta)) // E×1
}
