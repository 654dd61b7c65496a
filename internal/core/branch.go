package core

import (
	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// A training window runs on two goroutines. The ELBO of Eq. (14) has two
// reconstruction terms per snapshot, structure (Eq. 17) and attributes
// (Eq. 18). Both read S_t = [Z_t ‖ H_{t−1}] and feed nothing later in
// time; only the encoder, the posterior/prior/KL and the GRU form the chain
// backpropagation through time must walk in order. So the main goroutine
// records the chain on the model's tape, and each timestep's two decoder
// losses — a decoderBranch — record on a tape and nn.Ctx of their own, on
// one worker goroutine, from a leaf that stands in for S_t. A branch's
// forward overlaps the chain's forward; its backward overlaps the chain's
// backward sweep.
//
// Two kinds of Hook tie the main tape to the branches:
//
//   - a join right after S_t. When the sweep reaches it, it waits for
//     branch t's backward and adds the leaf's gradient into S_t's. Sitting
//     there, it also keeps S_t's value live until the branch is done with
//     it.
//   - after the step loop, a dispatch per branch followed by one 1×1 proxy
//     per loss term that holds the term's value; the loss sums the proxies
//     exactly as it summed the terms. The sweep reaches the dispatch right
//     after its proxies got their gradients; it seeds the branch's terms
//     with them and hands the branch's backward to the worker.
//
// The trained bits are those of one tape on one goroutine, because:
//
//   - Random draws. Every m.rng draw stays on the main goroutine in its old
//     order: NeighborSample, the reparameterisation noise, samplePairs.
//     The branches draw nothing.
//   - S_t's gradient. On one tape, the attribute branch's NT product and
//     then the structure branch's were added into a zeroed buffer. The
//     branch tape records the two branches in the same order, so its
//     backward replays exactly that into the leaf's zeroed gradient.
//     Adding that sum into S_t's fresh gradient is exact: GemmNT's sum
//     starts at +0 and is never −0.
//   - Parameter gradients. fTheta, fAlpha, gat and attrMLP appear only in
//     the branches. Flushing the main context, then the branch contexts in
//     step order (nn.FlushOrdered, which panics if a parameter is in both)
//     delivers each parameter's per-step gradients to Adam in the old
//     order.
//
// The proxies' gradients reach the branch terms the same way: added into a
// zeroed buffer, they arrive bit for bit.

// decoderBranch is one timestep's structure and attribute losses, recorded
// on their own tape and context.
type decoderBranch struct {
	tape        *tensor.Tape
	c           *nn.Ctx
	leaf        *tensor.Node // Var over S_t's value
	struc, attr *tensor.Node // loss terms, nil when the step has none
}

// newBranch returns the branch for the i-th step of a window, recording on
// the model's i-th branch tape (created on first use, reused across
// windows and epochs like the main tape) from a leaf over s's value.
func (m *Model) newBranch(i int, s *tensor.Node) *decoderBranch {
	for len(m.branchTapes) <= i {
		m.branchTapes = append(m.branchTapes, newTrainTape())
	}
	tape := m.branchTapes[i]
	return &decoderBranch{tape: tape, c: nn.NewTrainCtx(tape, m.adam), leaf: tape.Var(s.Value)}
}

// decode records the step's structure loss on the positive edges plus the
// sampled negatives (src, dst, targets), and its attribute loss with
// teacher forcing on the observed adjacency (esrc, edst). In the final
// epoch it also feeds the decoder output to the residual moments.
func (m *Model) decode(b *decoderBranch, snap *dyngraph.Snapshot, esrc, edst, src, dst []int, targets *tensor.Matrix, residuals, resetResid bool) {
	c, tape, n := b.c, b.tape, snap.N
	if len(src) > 0 {
		p := m.mixBernoulliProb(c, b.leaf, src, dst, n)
		b.struc = tape.BCEProb(p, targets)
	}
	if m.Cfg.F > 0 {
		dec := m.gat.Apply(c, b.leaf, esrc, edst, n)
		xHat := m.attrMLP.Apply(c, dec)
		if m.Cfg.UseSCE {
			b.attr = tape.SCELoss(xHat, snap.X, m.Cfg.SCEAlpha)
		} else {
			b.attr = tape.MSELoss(xHat, snap.X)
		}
		if residuals {
			m.recordResiduals(xHat.Value, snap.X, resetResid)
		}
	}
	// The main tape's proxies read the terms' values.
	tape.Keep(b.struc, b.attr)
}

// branchWorker runs jobs one at a time, in submission order, on its own
// goroutine. Each job answers on done: nil, or the value it panicked
// with. After a panic the worker skips the remaining jobs, answering each
// with that value, so the caller's count of answers never stalls.
type branchWorker struct {
	jobs   chan func()
	done   chan any
	exited chan struct{}
}

// startBranchWorker starts a worker for at most n jobs; submit never
// blocks and neither does the worker.
func startBranchWorker(n int) *branchWorker {
	w := &branchWorker{jobs: make(chan func(), n), done: make(chan any, n), exited: make(chan struct{})}
	go w.run()
	return w
}

func (w *branchWorker) run() {
	defer close(w.exited)
	var failed any
	for job := range w.jobs {
		if failed == nil {
			failed = catch(job)
		}
		w.done <- failed
	}
}

// catch runs job and returns what it panicked with, or nil.
func catch(job func()) (p any) {
	defer func() { p = recover() }()
	job()
	return nil
}

func (w *branchWorker) submit(job func()) { w.jobs <- job }

// wait blocks until the oldest unanswered job has finished and re-raises
// its panic on the caller's goroutine.
func (w *branchWorker) wait() {
	if p := <-w.done; p != nil {
		panic(p)
	}
}

// stop lets the worker finish the jobs already submitted and waits for it
// to exit.
func (w *branchWorker) stop() {
	close(w.jobs)
	<-w.exited
}
