package core

import (
	"math/rand"
	"runtime"
	"sync"

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
// Parallel decode fans out across goroutines — the decode's counterpart of
// tensor's parallelThreshold, and like it a property of the input. A
// timestep pays two fork/joins (α pass, θ pass) whose workers have parked
// by the time the next one starts. Measured on two cores with exact
// decoding and the fused pair kernel, T=16 generations, one goroutine
// against fanned out: N=94 (8 742 pairs per step) 9.1 against 9.8 ms,
// N=130 (16 770) 15.3 against 14.7 ms and ahead in two sessions of four,
// N=160 (25 440) 21.0 against 20.0, N=200 (39 800) 31.0 against 27.1,
// N=400 (159 600) 107 against 79, N=600 (359 400) 208 against 138.
const decodeFanOutPairs = 20000

// pairSlope is the hidden layers' LeakyReLU slope (nn.ActLeakyReLU), the
// one activation the fused kernel implements.
const pairSlope = 0.2

// pairHead is one head's parameters in the layout the scorer consumes.
type pairHead struct {
	b1  []float64 // first-layer bias, d_h
	w2T []float64 // second-layer weights transposed, K×d_h row-major
	b2  []float64 // second-layer bias, K
}

// pairScorer owns the per-request buffers of the Eq. 11 scoring phases.
// Every per-node result lives at a fixed stride, so concurrent workers
// write disjoint regions without a prefix sum over candidate counts.
type pairScorer struct {
	n, dh, k int
	exact    bool // every other node is a candidate; no list is materialised
	stride   int  // pair slots per node: N−1 when exact, CandidateCap otherwise

	w1   *tensor.Matrix // d_s×2d_h: [W₁θ ‖ W₁α]
	head [2]pairHead
	p    *tensor.Matrix // N×2d_h: S·w1, each row θ's d_h values then α's

	cands []int     // N×stride candidate ids (capped decoding only)
	cnt   []int     // candidates per node this timestep; 0: inactive or none found
	alpha []float64 // N×K mixture weights
	theta []float64 // N×stride Bernoulli means under each node's drawn component

	bounds  []int // node ranges of this timestep's fan-out (plan)
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

func (m *Model) newPairScorer(parallel bool) *pairScorer {
	n, dh, k := m.Cfg.N, m.Cfg.HiddenDim, m.Cfg.K
	ps := &pairScorer{n: n, dh: dh, k: k}
	ps.stride = m.Cfg.CandidateCap
	if ps.stride <= 0 || ps.stride >= n-1 {
		ps.exact, ps.stride = true, n-1
	}

	ds := m.fTheta.Layers[0].In
	ps.w1 = tensor.New(ds, 2*dh)
	for h, mlp := range [2]*nn.MLP{headTheta: m.fTheta, headAlpha: m.fAlpha} {
		if mlp.Hidden != nn.ActLeakyReLU {
			panic("core: the Eq. 11 pair kernel implements LeakyReLU hidden layers only")
		}
		l1, l2 := mlp.Layers[0], mlp.Layers[1]
		for r := 0; r < ds; r++ {
			copy(ps.w1.Row(r)[h*dh:(h+1)*dh], l1.W.Value.Row(r))
		}
		ps.head[h] = pairHead{b1: l1.B.Value.Data, w2T: l2.W.Value.Transpose().Data, b2: l2.B.Value.Data}
	}

	ps.p = tensor.New(n, 2*dh)
	ps.cnt = make([]int, n)
	ps.alpha = make([]float64, n*k)
	ps.theta = make([]float64, n*ps.stride)
	if !ps.exact {
		ps.cands = make([]int, n*ps.stride)
	}

	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	ps.bounds = make([]int, 0, workers+1)
	ps.workers = make([]*pairWorker, workers)
	for i := range ps.workers {
		w := &pairWorker{
			logit: make([]float64, k*ps.stride),
			aSum:  make([]float64, k),
		}
		w.nrng = rand.New(&w.nsrc)
		if !ps.exact {
			w.mark = make([]bool, n)
		}
		ps.workers[i] = w
	}
	return ps
}

// hoist runs the first layer of both heads once for every node:
// p = S·[W₁θ ‖ W₁α].
func (ps *pairScorer) hoist(s *tensor.Matrix) {
	clear(ps.p.Data)
	tensor.MatMulInto(ps.p, s, ps.w1)
}

// plan splits the nodes into contiguous per-worker ranges for this
// timestep. Every active node scores the same number of pairs (stride), so
// ranges of equal pair count are ranges of equal active-node count — an
// n/workers split would hand a worker whose range went inactive under
// DynamicNodes nothing to do. Below decodeFanOutPairs there is one range.
func (ps *pairScorer) plan(active []bool) {
	nActive := 0
	for _, a := range active {
		if a {
			nActive++
		}
	}
	parts := len(ps.workers)
	if nActive*ps.stride < decodeFanOutPairs {
		parts = 1
	}
	ps.bounds = append(ps.bounds[:0], 0)
	seen := 0
	for i, a := range active {
		if !a {
			continue
		}
		seen++
		for p := len(ps.bounds); p < parts && seen*parts >= p*nActive; p++ {
			ps.bounds = append(ps.bounds, i+1)
		}
	}
	ps.bounds = append(ps.bounds, ps.n)
}

// run calls f for every node, each planned range on its own worker; the
// last range runs on the calling goroutine.
func (ps *pairScorer) run(f func(w *pairWorker, i int)) {
	span := func(p int) {
		for i := ps.bounds[p]; i < ps.bounds[p+1]; i++ {
			f(ps.workers[p], i)
		}
	}
	var wg sync.WaitGroup
	last := len(ps.bounds) - 2
	for p := 0; p < last; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span(p)
		}()
	}
	span(last)
	wg.Wait()
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
		tensor.PairLogits(out, c, w2, kq, dh, pi, b1, p, ld, ps.cands[i*ps.stride:][:c], c, pairSlope)
		return
	}
	// Every other node, in node order: the rows before i, then those after.
	tensor.PairLogits(out, c, w2, kq, dh, pi, b1, p, ld, nil, i, pairSlope)
	if i < c {
		tensor.PairLogits(out[i:], c, w2, kq, dh, pi, b1, p[(i+1)*ld:], ld, nil, c-i, pairSlope)
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
