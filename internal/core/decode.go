package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"vrdag/internal/nn"
	"vrdag/internal/tensor"
)

// This file is the scoring half of the one-shot MixBernoulli decode
// (Eq. 11). For node i and every candidate destination j,
//
//	θ_ij = σ(f_θ(s_i − s_j))      α_i = softmax(Σ_j f_α(s_i − s_j))
//
// with f_θ, f_α two-layer MLPs R^{d_s} → R^{d_h} → R^K. Running the MLPs
// on a C×d_s matrix of differences would put the pair dimension on GEMM
// rows, and every tensor.Backend vectorises across output columns only
// (the bit-stability contract in tensor/backend.go): d_h = 16 and K = 2
// output columns are the kernels' scalar-tail shapes, paid once per pair.
// pairScorer lays the same arithmetic out with the pairs on the vector
// axis instead:
//
//  1. The first layer is linear, so W₁ᵀ(s_i − s_j) + b₁ equals
//     (SW₁)_i − (SW₁)_j + b₁. P = S·[W₁θ ‖ W₁α] is one N-row GEMM per
//     timestep (hoist), N×2d_h row-major as the GEMM writes it: a node's
//     d_h first-layer values for one head are contiguous.
//  2. Per node, tensor.PairLogits does the rest in one pass with nothing
//     stored in between: it forms (P[i][r] − P[cand_k][r]) + b₁[r],
//     activates it, and adds its product with W₂ᵀ[q][r] to candidate k's
//     logit q, r ascending — the order in which a GEMM over a stored
//     hidden block would have summed them — with the candidates, not the
//     hidden units, on the vector lanes. Bias, sigmoid and α's sum over the
//     candidates then run along contiguous length-C rows.
//
// α needs all K logit rows; θ is only ever read under the component the
// node drew, so its second layer and sigmoid run for that one row, after
// the component draws (see decodeStructure for the phase order). Only the
// first layer's rounding differs from evaluating the MLPs on the
// differences; the second layer accumulates in the same order.
// TestPairScorerMatchesMLPForward pins the agreement.

// The two MixBernoulli heads, in the order their first layers sit in P.
const (
	headTheta = iota
	headAlpha
)

// decodeFanOutPairs is the pair count of one timestep from which a
// Parallel decode scores it on more than one goroutine — the decode's
// counterpart of tensor's parallelThreshold, and like it a property of the
// input. Below it the helpers stay parked and the caller claims every
// chunk. Measured on two cores (2 vCPU Xeon, go1.24.0, avx2), T=16
// generations of an untrained DefaultConfig(N, 2) model, exact decoding,
// medians of 80 alternating runs, one goroutine against helpers woken from
// the first step: N=40 (1 560 pairs per step) 3.65 against 3.78 ms, N=45
// (1 980) 4.11 against 4.08, N=50 (2 450) 4.82 against 4.66, N=60 (3 540)
// 6.07 against 5.67, N=70 (4 830) 7.37 against 6.63, N=94 (8 742) 11.29
// against 9.55. Gains under 4 % sit inside the runs' quartiles, so the cut
// is at the first size that won by more.
const decodeFanOutPairs = 3000

// decodeChunkPairs is about the pair count of one claimed chunk: small
// enough that the last chunk of a pass costs a few µs on whichever
// goroutine holds it, large enough that the claims are a rounding error.
const decodeChunkPairs = 512

// helperSpin bounds how long a helper that has finished its share of one
// pass of a ring spins for the next before it parks. Between α and θ the
// caller only reads the components off the step's uniforms; before a first
// step's α pass it runs the prior and the hoist, before an exact step's
// next uniforms its edges and drawStep. The bound guards against a
// descheduled caller.
const helperSpin = time.Millisecond

// pairHead is one head's parameters in the layout the scorer consumes.
type pairHead struct {
	b1  []float64 // first-layer bias, d_h
	w2T []float64 // second-layer weights transposed, K×d_h row-major
	b2  []float64 // second-layer bias, K
}

// pairScorer runs the Eq. 11 decode passes of one generation or forecast
// and, for a Parallel request, one helper goroutine per extra P for the
// life of the request (started by the first wake, ended by stopHelpers). A
// pass is posted, then joined: between the two the caller may do other
// work while the helpers claim chunks, and join claims what is left and
// waits for the chunks the helpers hold. Every per-node result lives at a
// fixed stride, so the goroutines write disjoint regions without a prefix
// sum over candidate counts.
//
// The buffers come from the request's genScratch (pairBufs), which a later
// request on the model reuses; the struct itself, with its atomics and
// bells, is the request's own, since a helper stopped at the end of one
// request may still read them while the next one runs.
type pairScorer struct {
	n, dh, k int
	exact    bool // every other node is a candidate; no list is materialised
	stride   int  // pair slots per node: N−1 when exact, CandidateCap otherwise

	*pairBufs
	head [2]pairHead

	chunk int                        // nodes per claim
	f     func(w *pairWorker, i int) // the current pass's per-node work
	pass  uint32                     // passes posted so far (caller only)
	open  bool                       // pass is posted and not yet joined (caller only)
	claim atomic.Uint64              // pass<<32 | first unclaimed node
	done  atomic.Int64
	ring  atomic.Uint64 // first<<32 | last pass the latest wake asks the helpers to join
	stop  atomic.Bool   // set by stopHelpers: spinning helpers give up
	bells []chan struct{}
}

// pairBufs is every buffer a pairScorer's passes read or write, sized by
// a decodeShape.
type pairBufs struct {
	w1  *tensor.Matrix // d_s×2d_h: [W₁θ ‖ W₁α]
	w2T [2][]float64   // each head's second-layer weights transposed, K×d_h
	p   *tensor.Matrix // N×2d_h: S·w1, each row θ's d_h values then α's

	cands []int     // N×stride candidate ids (capped decoding only)
	cnt   []int     // candidates per node of the step being scored; 0: inactive or none found
	alpha []float64 // N×K mixture weights
	theta []float64 // N×stride Bernoulli means under each node's drawn component

	// workers[0] is the calling goroutine's scratch, workers[1:] the
	// helpers'. A pass hands out chunks of nodes from claim to whichever
	// goroutine asks first; done counts the nodes finished. A helper
	// touches its worker only inside a chunk it claimed, and the request's
	// last join waits for every claimed chunk.
	workers []*pairWorker
}

// pairWorker is one goroutine's scratch, reused for every node it scores.
type pairWorker struct {
	nsrc splitmixSource
	nrng *rand.Rand
	mark []bool // candidate-dedup scratch (capped decoding only)

	logit []float64 // K×stride: the α head's logits
	aSum  []float64 // K
}

// decodeShape is what a request's decode buffers are sized by: the node
// count, the pair slots per node and the goroutines that score them. A
// pooled scratch serves a request only at the shape it was built for.
type decodeShape struct{ n, stride, workers int }

// exact reports whether the shape scores every other node.
func (sh decodeShape) exact() bool { return sh.stride == sh.n-1 }

// decodeShape returns the shape of a request under the model's current
// CandidateCap, on GOMAXPROCS goroutines when parallel.
func (m *Model) decodeShape(parallel bool) decodeShape {
	n := m.Cfg.N
	sh := decodeShape{n: n, stride: m.Cfg.CandidateCap, workers: 1}
	if sh.stride <= 0 || sh.stride >= n-1 {
		sh.stride = n - 1
	}
	if parallel {
		sh.workers = runtime.GOMAXPROCS(0)
	}
	return sh
}

func (m *Model) newPairBufs(sh decodeShape) *pairBufs {
	n, dh, k := sh.n, m.Cfg.HiddenDim, m.Cfg.K
	b := &pairBufs{
		w1:    tensor.New(m.fTheta.Layers[0].In, 2*dh),
		p:     tensor.New(n, 2*dh),
		cnt:   make([]int, n),
		alpha: make([]float64, n*k),
		theta: make([]float64, n*sh.stride),
	}
	for h := range b.w2T {
		b.w2T[h] = make([]float64, k*dh)
	}
	if !sh.exact() {
		b.cands = make([]int, n*sh.stride)
	}
	b.workers = make([]*pairWorker, sh.workers)
	for i := range b.workers {
		w := &pairWorker{
			logit: make([]float64, k*sh.stride),
			aSum:  make([]float64, k),
		}
		w.nrng = rand.New(&w.nsrc)
		if !sh.exact() {
			w.mark = make([]bool, n)
		}
		b.workers[i] = w
	}
	return b
}

// pairScorerOn returns a request's scorer over b, which has shape sh,
// with the model's current weights laid out in b.w1 and b.w2T.
func (m *Model) pairScorerOn(b *pairBufs, sh decodeShape) *pairScorer {
	dh := m.Cfg.HiddenDim
	ps := &pairScorer{n: sh.n, dh: dh, k: m.Cfg.K, exact: sh.exact(), stride: sh.stride, pairBufs: b}
	for h, mlp := range [2]*nn.MLP{headTheta: m.fTheta, headAlpha: m.fAlpha} {
		if mlp.Hidden != tensor.ActLeakyReLU {
			panic("core: the Eq. 11 pair kernel implements LeakyReLU hidden layers only")
		}
		l1, l2 := mlp.Layers[0], mlp.Layers[1]
		for r := 0; r < b.w1.Rows; r++ {
			copy(b.w1.Row(r)[h*dh:(h+1)*dh], l1.W.Value.Row(r))
		}
		w2, w2T := l2.W.Value, b.w2T[h] // d_h×K, transposed into K×d_h
		for r := 0; r < w2.Rows; r++ {
			for q, v := range w2.Row(r) {
				w2T[q*dh+r] = v
			}
		}
		ps.head[h] = pairHead{b1: l1.B.Value.Data, w2T: w2T, b2: l2.B.Value.Data}
	}
	ps.chunk = max(1, decodeChunkPairs/max(ps.stride, 1))
	return ps
}

// hoist runs the first layer of both heads once for every node:
// p = S·[W₁θ ‖ W₁α].
func (ps *pairScorer) hoist(s *tensor.Matrix) {
	clear(ps.p.Data)
	tensor.MatMulInto(ps.p, s, ps.w1)
}

// fansOut reports whether a timestep over these active nodes scores enough
// pairs to share its passes with the helpers. The candidate pass of capped
// decoding draws about as many candidates as the α pass scores pairs, so
// the same cut decides it.
func (ps *pairScorer) fansOut(active []bool) bool {
	if len(ps.workers) < 2 {
		return false
	}
	nActive := 0
	for _, a := range active {
		if a {
			nActive++
		}
	}
	return nActive*ps.stride >= decodeFanOutPairs
}

// helpersStarted counts the decode helpers wake has started since process
// start: one tally per helper goroutine, read by the tests that check no
// helper outlives its request.
var helpersStarted atomic.Int64

// wake rings every helper, starting them on first use, to join the
// caller's next passes: a step's α and θ, preceded by its drawStep pass
// when it draws at its start and followed by the next step's uniforms when
// exact decoding draws them ahead; or a capped step's next candidate pass.
// A helper takes part in each in turn, then parks until the next wake.
func (ps *pairScorer) wake(passes int) {
	if ps.bells == nil {
		ps.bells = make([]chan struct{}, len(ps.workers)-1)
		for h := range ps.bells {
			ps.bells[h] = make(chan struct{}, 1)
			helpersStarted.Add(1)
			go ps.help(ps.workers[h+1], ps.bells[h])
		}
	}
	ps.ring.Store(uint64(ps.pass+1)<<32 | uint64(ps.pass+uint32(passes)))
	for _, b := range ps.bells {
		select {
		case b <- struct{}{}:
		default: // still ringing from a step it slept through
		}
	}
}

// stopHelpers ends the helpers: parked ones exit, spinning ones give up.
// It does not wait for them to exit, which would cost the caller a P's
// wake-up: they hold no arena buffer, and once the last pass is joined
// they only read the scorer's atomics.
func (ps *pairScorer) stopHelpers() {
	ps.stop.Store(true)
	for _, b := range ps.bells {
		close(b)
	}
	ps.bells = nil
}

// help is a helper goroutine: parked on its bell between rings, it joins
// the rung passes in turn, each after the first only if it is posted
// within helperSpin of the helper's last chunk. The wait for the first
// needs no bound: the caller posts it before the step returns, and release
// stops a step that panics.
func (ps *pairScorer) help(w *pairWorker, bell <-chan struct{}) {
	for range bell {
		r := ps.ring.Load()
		var deadline time.Time
		for q, last := uint32(r>>32), uint32(r); int32(last-q) >= 0; q++ {
			if !ps.await(q, deadline) {
				break
			}
			ps.work(w, q)
			deadline = time.Now().Add(helperSpin)
		}
	}
}

// await spins, yielding its P, until pass q is posted or has gone by (a
// late helper then finds nothing to claim). It reports false once the
// generation has ended or a non-zero deadline has passed.
func (ps *pairScorer) await(q uint32, deadline time.Time) bool {
	for !ps.stop.Load() {
		if p := uint32(ps.claim.Load() >> 32); int32(p-q) >= 0 {
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return false
}

// work runs chunks of pass q until none is left.
func (ps *pairScorer) work(w *pairWorker, q uint32) {
	for {
		c := ps.claim.Load()
		lo := int(uint32(c))
		if uint32(c>>32) != q || lo >= ps.n {
			return
		}
		hi := min(lo+ps.chunk, ps.n)
		if !ps.claim.CompareAndSwap(c, c+uint64(hi-lo)) {
			continue
		}
		// The claim orders this read after post's write of f, and done
		// orders it before the next pass's.
		f := ps.f
		for i := lo; i < hi; i++ {
			f(w, i)
		}
		ps.done.Add(int64(hi - lo))
	}
}

// post opens a pass that calls f for every node: from here whichever
// helpers are awake claim its chunks, while the caller goes on until it
// joins. Each node writes only its own slots, so the result does not
// depend on who ran it. The caller must not touch what f reads or writes
// between post and join.
func (ps *pairScorer) post(f func(w *pairWorker, i int)) { ps.postFrom(f, 0) }

// postOne opens a pass of one chunk, node N−1 alone: serial work that
// whichever goroutine claims it first runs.
func (ps *pairScorer) postOne(f func(w *pairWorker, i int)) { ps.postFrom(f, ps.n-1) }

func (ps *pairScorer) postFrom(f func(w *pairWorker, i int), first int) {
	ps.f = f
	ps.pass++
	ps.open = true
	ps.done.Store(int64(first))
	ps.claim.Store(uint64(ps.pass)<<32 | uint64(first))
}

// join ends the posted pass: the caller claims the chunks still unclaimed,
// then waits for those the helpers hold; with no helper awake it runs them
// all. With no pass open it returns at once. The pass is marked joined
// before the caller's first chunk, so a panic out of f does not make
// release wait for a chunk nobody will finish.
func (ps *pairScorer) join() {
	if !ps.open {
		return
	}
	ps.open = false
	ps.work(ps.workers[0], ps.pass)
	for ps.done.Load() < int64(ps.n) {
		runtime.Gosched()
	}
}

// candidate returns the k-th candidate destination of node i.
func (ps *pairScorer) candidate(i, k int) int {
	if !ps.exact {
		return ps.cands[i*ps.stride+k]
	}
	if k >= i {
		return k + 1
	}
	return k
}

// logits writes rows w2 (kq of them, d_h each) of head h's second layer
// for node i's c candidates: out[q*c+k] = w2[q] · act(P_i − P_cand_k + b₁).
func (ps *pairScorer) logits(out []float64, h int, w2 []float64, kq, i, c int) {
	dh, ld := ps.dh, 2*ps.dh
	p, b1 := ps.p.Data[h*dh:], ps.head[h].b1
	pi := p[i*ld:][:dh]
	if !ps.exact {
		tensor.PairLogits(out, c, w2, kq, dh, pi, b1, p, ld, ps.cands[i*ps.stride:][:c], c, tensor.LeakySlope)
		return
	}
	// Every other node, in node order: the rows before i, then those after.
	tensor.PairLogits(out, c, w2, kq, dh, pi, b1, p, ld, nil, i, tensor.LeakySlope)
	if i < c {
		tensor.PairLogits(out[i:], c, w2, kq, dh, pi, b1, p[(i+1)*ld:], ld, nil, c-i, tensor.LeakySlope)
	}
}

// scoreAlpha writes node i's mixture weights over its c candidates,
// softmax_q(Σ_k f_α(s_i − s_cand_k)_q), into ps.alpha.
func (ps *pairScorer) scoreAlpha(w *pairWorker, i, c int) {
	k, hd := ps.k, &ps.head[headAlpha]
	logits := w.logit[:k*c]
	ps.logits(logits, headAlpha, hd.w2T, k, i, c)
	for q := 0; q < k; q++ {
		b, sum := hd.b2[q], 0.0
		for _, v := range logits[q*c : (q+1)*c] {
			sum += v + b
		}
		w.aSum[q] = sum
	}
	tensor.SoftmaxSlice(ps.alpha[i*k:(i+1)*k], w.aSum)
}

// scoreTheta writes node i's Bernoulli means under component comp,
// σ(f_θ(s_i − s_cand_k)_comp) for each of its c candidates, into the
// node's theta slots.
func (ps *pairScorer) scoreTheta(i, c, comp int) {
	dh, hd := ps.dh, &ps.head[headTheta]
	th := ps.theta[i*ps.stride:][:c]
	ps.logits(th, headTheta, hd.w2T[comp*dh:][:dh], 1, i, c)
	b := hd.b2[comp]
	for k := range th {
		th[k] += b
	}
	tensor.VSigmoid(th)
}
