package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// This file implements the window-parallel TBPTT training engine
// (Cfg.ParallelWindows). The sequential trainer in train.go interleaves
// the forward recurrence, backpropagation, and one optimizer step per
// window, so every core but one idles for the whole epoch. The parallel
// engine restructures the epoch into three passes:
//
//  1. Prep (parallel over timesteps): neighbour-sampled encoder views,
//     structure-loss pairs, and reparameterization noise for every
//     timestep, each drawn from a random stream derived from (Seed,
//     epoch, timestep) — never from the shared model rng — so the inputs
//     are identical whatever the worker count.
//  2. Seed (sequential, tape-free): a cheap value-only forward recurrence
//     through the posterior/GRU computes the detached hidden state at
//     every window boundary. Only the timesteps before the last window's
//     start are visited, and no gradients or tape bookkeeping exist.
//  3. Windows (parallel): every TBPTT window runs concurrently on its own
//     tape, flushing gradients into a private nn.GradBuffer. Buffers are
//     merged into the optimizer in ascending window order and a single
//     Adam step closes the epoch.
//
// Determinism: window results are keyed by window index, merged in window
// order, and every random draw comes from a derived per-timestep stream,
// so the loss statistics and the trained weights are bit-identical for
// any TrainWorkers value (pinned by TestParallelWindowsWorkerInvariance).
//
// Trade-off vs the sequential path: one accumulated step per epoch
// instead of one step per window — a larger, lower-variance gradient but
// W-times fewer optimizer steps. See docs/ARCHITECTURE.md.

// Derived random streams, one label per consumer so prep, the seed pass,
// and the window workers can draw independently without desyncing.
const (
	streamNeighbor uint64 = 0x6e626872 // encoder neighbour sampling
	streamNoise    uint64 = 0x6e6f6973 // reparameterization noise
	streamNegative uint64 = 0x6e656773 // structure-loss negative pairs
)

// mix64 is the SplitMix64 finalizer; it turns structured (seed, epoch,
// timestep) triples into independent-looking stream seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// trainSeed derives the rng seed for one (epoch, timestep, stream) triple.
func (m *Model) trainSeed(epoch, t int, stream uint64) int64 {
	h := mix64(uint64(m.Cfg.Seed)) ^ mix64(uint64(epoch)+1) ^ mix64(uint64(t)+0x10001) ^ mix64(stream)
	return int64(mix64(h))
}

// stepPrep holds one timestep's precomputed training inputs. The noise
// matrix is arena-owned by the epoch and returned when the epoch ends;
// encSnap and the pair slices are plain heap objects.
type stepPrep struct {
	encSnap    *dyngraph.Snapshot
	noise      *tensor.Matrix // N×LatentDim reparameterization draws
	esrc, edst []int          // the snapshot's edge lists
	src, dst   []int          // structure-loss pairs: the edges, then the sampled negatives
	targets    *tensor.Matrix
}

type windowSpan struct{ start, end int }

// windowOut is one window's contribution, keyed by window index so the
// merge order (and therefore every float sum) ignores worker scheduling.
type windowOut struct {
	loss, struc, attr, kl float64
	gb                    *nn.GradBuffer
	resid                 residMoments
	err                   error
}

// runEpochParallel executes one training epoch with the two-pass parallel
// engine. On any error (cancellation, non-finite loss) all pooled buffers
// are still returned to the arena and no optimizer step is taken.
func (m *Model) runEpochParallel(ctx context.Context, g *dyngraph.Sequence, epoch int) (TrainStats, error) {
	n := g.N
	window := m.Cfg.TBPTT
	if window <= 0 || window > g.T() {
		window = g.T()
	}
	var windows []windowSpan
	for s := 0; s < g.T(); s += window {
		e := s + window
		if e > g.T() {
			e = g.T()
		}
		windows = append(windows, windowSpan{s, e})
	}
	workers := m.Cfg.TrainWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	prep := make([]stepPrep, g.T())
	seeds := make([]*tensor.Matrix, len(windows))
	outs := make([]windowOut, len(windows))
	defer func() {
		for i := range prep {
			if prep[i].noise != nil {
				tensor.Put(prep[i].noise)
				prep[i].noise = nil
			}
		}
		for i, s := range seeds {
			if s != nil {
				tensor.Put(s)
				seeds[i] = nil
			}
		}
		for i := range outs {
			if outs[i].gb != nil {
				outs[i].gb.Release()
				outs[i].gb = nil
			}
		}
	}()

	// Pass 0 — per-timestep input prep, parallel across timesteps.
	tensor.ParallelFor(workers, g.T(), func(t int) {
		snap := g.At(t)
		p := &prep[t]
		p.encSnap = snap
		if m.Cfg.NeighborSample > 0 {
			nbrRng := rand.New(rand.NewSource(m.trainSeed(epoch, t, streamNeighbor)))
			p.encSnap = snap.SampleNeighbors(m.Cfg.NeighborSample, nbrRng)
		}
		noiseRng := rand.New(rand.NewSource(m.trainSeed(epoch, t, streamNoise)))
		p.noise = tensor.Get(n, m.Cfg.LatentDim)
		for i := range p.noise.Data {
			p.noise.Data[i] = noiseRng.NormFloat64()
		}
		negRng := rand.New(rand.NewSource(m.trainSeed(epoch, t, streamNegative)))
		p.esrc, p.edst = snap.EdgeLists()
		p.src, p.dst, p.targets = m.samplePairs(snap, p.esrc, p.edst, negRng)
	})
	if err := ctx.Err(); err != nil {
		return TrainStats{}, err
	}

	// Pass 1 — tape-free forward recurrence for the window-boundary
	// hidden-state seeds, pipelined with pass 2: seeds[w] is published
	// (channel close) the moment the recurrence crosses window w's start,
	// so early windows compute while later seeds are still rolling
	// forward. The recurrence stops before the last window: its interior
	// states seed nothing.
	ready := make([]chan struct{}, len(windows))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	seeds[0] = tensor.Get(n, m.Cfg.HiddenDim) // H_0 = 0
	close(ready[0])
	var seedWG sync.WaitGroup
	// The seed recurrence must drain before the deferred cleanup returns
	// its buffers (defers run LIFO; this one is registered later, so it
	// runs first).
	defer seedWG.Wait()
	if len(windows) > 1 {
		seedWG.Add(1)
		go func() {
			defer seedWG.Done()
			h := tensor.Get(n, m.Cfg.HiddenDim)
			// Closure capture, not an evaluated argument: h is rebound every
			// timestep, and the buffer to return is whichever one it holds
			// at exit (the loop Puts each superseded state itself).
			defer func() { tensor.Put(h) }()
			for w := 1; w < len(windows); w++ {
				for t := windows[w-1].start; t < windows[w-1].end; t++ {
					if ctx.Err() != nil {
						return // unpublished ready channels stay open; workers bail on ctx
					}
					h2 := m.stepHiddenValue(&prep[t], h, t)
					tensor.Put(h)
					h = h2
				}
				s := tensor.Get(n, m.Cfg.HiddenDim)
				copy(s.Data, h.Data)
				seeds[w] = s
				close(ready[w]) // happens-before the worker's read of seeds[w]
			}
		}()
	}

	// Pass 2 — all windows concurrently, one tape per worker. Each tape
	// runs the same scheduling configuration as the sequential path (a
	// worker tape may hold recordings from an aborted epoch; Reset first so
	// the schedule can be installed).
	for len(m.workerTapes) < workers {
		m.workerTapes = append(m.workerTapes, tensor.NewTape())
	}
	sched := m.tapeSched()
	for _, tp := range m.workerTapes {
		tp.Reset()
		tp.SetSched(sched)
	}
	var nextWin atomic.Int64
	var wg sync.WaitGroup
	live := workers
	if live > len(windows) {
		live = len(windows)
	}
	for wk := 0; wk < live; wk++ {
		wg.Add(1)
		go func(tape *tensor.Tape) {
			defer wg.Done()
			for {
				w := int(nextWin.Add(1)) - 1
				if w >= len(windows) {
					return
				}
				select {
				case <-ready[w]:
				case <-ctx.Done():
					return
				}
				outs[w] = m.runWindow(tape, g, prep, windows[w], seeds[w], epoch)
				tape.Reset()
			}
		}(m.workerTapes[wk])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return TrainStats{}, err
	}
	for w := range outs {
		if outs[w].err != nil {
			return TrainStats{}, outs[w].err
		}
	}

	// Merge in ascending window order: gradients into the optimizer,
	// moments into the model, then one accumulated Adam step.
	agg := TrainStats{Epoch: epoch}
	final := epoch == m.Cfg.Epochs-1
	if final {
		m.resid.reset()
	}
	for w := range outs {
		m.adam.AddFrom(outs[w].gb)
		agg.Loss += outs[w].loss
		agg.StrucLoss += outs[w].struc
		agg.AttrLoss += outs[w].attr
		agg.KLLoss += outs[w].kl
		if final {
			m.resid.merge(&outs[w].resid)
		}
	}
	agg.GradNorm = m.adam.Step()
	w := float64(len(windows))
	agg.Loss /= w
	agg.StrucLoss /= w
	agg.AttrLoss /= w
	agg.KLLoss /= w
	return agg, nil
}

// runWindow records one TBPTT window on tape and flushes its gradients
// into a fresh GradBuffer. The caller resets the tape afterwards; the
// returned buffer is released by the epoch's cleanup (or by the merge).
func (m *Model) runWindow(tape *tensor.Tape, g *dyngraph.Sequence, prep []stepPrep, win windowSpan, seed *tensor.Matrix, epoch int) (out windowOut) {
	n := g.N
	gb := m.adam.NewGradBuffer()
	out.gb = gb
	c := nn.NewSinkCtx(tape, gb)
	h := tape.Const(seed)
	var strucTerms, attrTerms, klTerms []*tensor.Node

	// Same rematerialization layout as the sequential path: segments of
	// CheckpointEvery timesteps, boundary state and loss terms pinned.
	span := win.end - win.start
	if ce := m.Cfg.CheckpointEvery; ce > 0 && ce < span {
		span = ce
	}
	for t0 := win.start; t0 < win.end; t0 += span {
		t1 := t0 + span
		if t1 > win.end {
			t1 = win.end
		}
		tape.Checkpoint(func() {
			for t := t0; t < t1; t++ {
				snap := g.At(t)
				p := &prep[t]

				eps := m.enc.Encode(c, p.encSnap)
				muQ, logSigQ := m.posterior(c, eps, h)
				muP, logSigP := m.prior(c, h)
				klTerms = append(klTerms, tape.Scale(tape.GaussianKL(muQ, logSigQ, muP, logSigP),
					1/float64(n*m.Cfg.LatentDim)))

				// z = µ + ε·σ with the pre-drawn noise of the prep pass; Const
				// because the epoch owns the buffer, not this window's tape.
				z := tape.Add(muQ, tape.Mul(tape.Const(p.noise), tape.Exp(logSigQ)))
				s := tape.ConcatCols(z, h)

				if len(p.src) > 0 {
					pr := m.mixBernoulliProb(c, s, p.src, p.dst, n)
					strucTerms = append(strucTerms, tape.BCEProb(pr, p.targets))
				}

				if m.Cfg.F > 0 {
					dec := m.gat.Apply(c, s, p.esrc, p.edst, n)
					xHat := m.attrMLP.Apply(c, dec)
					if m.Cfg.UseSCE {
						attrTerms = append(attrTerms, tape.SCELoss(xHat, snap.X, m.Cfg.SCEAlpha))
					} else {
						attrTerms = append(attrTerms, tape.MSELoss(xHat, snap.X))
					}
					if epoch == m.Cfg.Epochs-1 {
						out.resid.record(xHat.Value, snap.X)
					}
				}

				h = m.gru.Step(c, m.gruInput(c, eps, z, t, n), h)
			}
			tape.Keep(h)
			tape.Keep(strucTerms...)
			tape.Keep(attrTerms...)
			tape.Keep(klTerms...)
		})
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
	// Loss components are read after Backward for the window stats; the
	// scheduled executor must not release them.
	tape.Keep(struc, attr, kl, loss)

	lv := loss.Value.Data[0]
	if math.IsNaN(lv) || math.IsInf(lv, 0) {
		out.err = fmt.Errorf("core: non-finite loss at epoch %d, window [%d,%d)", epoch, win.start, win.end)
		return out
	}
	tape.Backward(loss)
	c.Flush()

	out.loss = lv
	out.struc = struc.Value.Data[0]
	out.attr = attr.Value.Data[0]
	out.kl = kl.Value.Data[0]
	return out
}

// stepHiddenValue advances the posterior recurrence by one timestep
// without a tape: ε = enc(G_t), z ~ q(·|ε,H), H' = GRU([ε‖z‖fT(t)], H).
// It mirrors the taped forward (same clamping conventions, same pre-drawn
// noise) so the detached window seeds track the trajectory the windows
// themselves recompute. The returned state is pool-allocated; the caller
// owns it and the input h stays untouched.
func (m *Model) stepHiddenValue(p *stepPrep, h *tensor.Matrix, t int) *tensor.Matrix {
	eps := m.enc.EncodeValue(p.encSnap)

	// Posterior heads on [ε ‖ h] (Eq. 8-9), value-only.
	cat := concatValue(eps, h)
	hid := m.postHid.Forward(cat)
	tensor.Put(cat)
	leakyValInPlace(hid)
	mu := m.postMu.Forward(hid)
	logSig := m.postSig.Forward(hid)
	tensor.Put(hid)

	// z = µ + ε_noise·exp(logσ), clamped exactly like tape.Exp.
	z := tensor.Get(mu.Rows, mu.Cols)
	for i := range z.Data {
		z.Data[i] = mu.Data[i] + p.noise.Data[i]*math.Exp(math.Min(logSig.Data[i], 40))
	}
	tensor.Put(mu)
	tensor.Put(logSig)

	in := m.gruInputValue(eps, z, t, h.Rows)
	tensor.Put(eps)
	tensor.Put(z)
	h2 := m.gru.Forward(in, h)
	tensor.Put(in)
	return h2
}
