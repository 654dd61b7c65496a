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
// pairScorer lays the same arithmetic out with the pairs on the column
// axis instead:
//
//  1. The first layer is linear, so W₁ᵀ(s_i − s_j) + b₁ equals
//     (SW₁)_i − (SW₁)_j + b₁. P = S·[W₁θ ‖ W₁α] is one N-row GEMM per
//     timestep (hoist), kept transposed, 2d_h×N, so one hidden unit's
//     value for every node is a contiguous row.
//  2. Per node the hidden block is built transposed, d_h×C: row r is
//     (P[r][i] − P[r][cand_k]) + b₁[r] over the candidates k — with exact
//     decoding a contiguous subtraction — followed by one activation call.
//     The logits are W₂ᵀ (K×d_h) · hidᵀ (d_h×C): K kernel calls of width C
//     instead of C calls of width K, and bias, sigmoid and α's sum over
//     the candidates run along contiguous length-C rows.
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
// decoding: a T=16 generation at N=94 (8 742 pairs per step) takes 13 ms
// on one goroutine and 16 ms fanned out, N=200 (39 800) breaks even, N=300
// (89 700) is a fifth faster fanned out.
const decodeFanOutPairs = 1 << 15

// pairHead is one head's parameters in the layout the scorer consumes.
type pairHead struct {
	b1  []float64      // first-layer bias, d_h
	w2T *tensor.Matrix // second-layer weights transposed, K×d_h
	b2  []float64      // second-layer bias, K
}

// pairScorer owns the per-request buffers of the Eq. 11 scoring phases.
// Every per-node result lives at a fixed stride, so concurrent workers
// write disjoint regions without a prefix sum over candidate counts.
type pairScorer struct {
	n, dh, k int
	exact    bool // every other node is a candidate; no list is materialised
	stride   int  // pair slots per node: N−1 when exact, CandidateCap otherwise

	act      nn.Activation
	w1       *tensor.Matrix // d_s×2d_h: [W₁θ ‖ W₁α]
	head     [2]pairHead
	thetaRow []tensor.Matrix // 1×d_h views of the θ head's w2T rows
	pT       []float64       // 2d_h×N: (S·w1)ᵀ, θ rows first

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

	hid   tensor.Matrix // d_h×C view of buf: the node's transposed hidden block
	out   tensor.Matrix // logits view: K×C of logit (α) or 1×C of the node's theta slots
	buf   []float64     // d_h×stride
	logit []float64     // K×stride
	aSum  []float64     // K
}

func (m *Model) newPairScorer(parallel bool) *pairScorer {
	n, dh, k := m.Cfg.N, m.Cfg.HiddenDim, m.Cfg.K
	ps := &pairScorer{n: n, dh: dh, k: k, act: m.fTheta.Hidden}
	ps.stride = m.Cfg.CandidateCap
	if ps.stride <= 0 || ps.stride >= n-1 {
		ps.exact, ps.stride = true, n-1
	}

	ds := m.fTheta.Layers[0].In
	ps.w1 = tensor.New(ds, 2*dh)
	for h, mlp := range [2]*nn.MLP{headTheta: m.fTheta, headAlpha: m.fAlpha} {
		l1, l2 := mlp.Layers[0], mlp.Layers[1]
		for r := 0; r < ds; r++ {
			copy(ps.w1.Row(r)[h*dh:(h+1)*dh], l1.W.Value.Row(r))
		}
		ps.head[h] = pairHead{b1: l1.B.Value.Data, w2T: l2.W.Value.Transpose(), b2: l2.B.Value.Data}
	}
	ps.thetaRow = make([]tensor.Matrix, k)
	for q := range ps.thetaRow {
		ps.thetaRow[q] = tensor.Matrix{Rows: 1, Cols: dh, Data: ps.head[headTheta].w2T.Row(q)}
	}

	ps.pT = make([]float64, 2*dh*n)
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
			buf:   make([]float64, dh*ps.stride),
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
// pT = (S·[W₁θ ‖ W₁α])ᵀ.
func (ps *pairScorer) hoist(s *tensor.Matrix) {
	n := ps.n
	p := tensor.Get(n, 2*ps.dh)
	tensor.MatMulInto(p, s, ps.w1)
	for i := 0; i < n; i++ {
		for r, v := range p.Row(i) {
			ps.pT[r*n+i] = v
		}
	}
	tensor.Put(p)
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

// hidden builds head h's transposed hidden block for node i over its c
// candidates into w.hid: hid[r][k] = act((P[r][i] − P[r][cand_k]) + b₁[r]).
func (ps *pairScorer) hidden(w *pairWorker, h, i, c int) {
	n, dh := ps.n, ps.dh
	hid := w.buf[:dh*c]
	b1 := ps.head[h].b1
	for r := 0; r < dh; r++ {
		src := ps.pT[(h*dh+r)*n:][:n]
		dst := hid[r*c:][:c]
		pi, b := src[i], b1[r]
		if ps.exact {
			subBias(dst[:i], src[:i], pi, b)
			subBias(dst[i:], src[i+1:], pi, b)
			continue
		}
		for k, j := range ps.cands[i*ps.stride:][:c] {
			dst[k] = (pi - src[j]) + b
		}
	}
	ps.act.ApplyInPlace(hid)
	w.hid.Rows, w.hid.Cols, w.hid.Data = dh, c, hid
}

// subBias writes dst[k] = (a − src[k]) + b. Elementwise, so the 4-way
// unroll (a third faster than the plain loop) cannot change a result.
func subBias(dst, src []float64, a, b float64) {
	n := len(dst)
	src = src[:n]
	k := 0
	for ; k+3 < n; k += 4 {
		d, s := dst[k:k+4:k+4], src[k:k+4:k+4]
		d[0] = (a - s[0]) + b
		d[1] = (a - s[1]) + b
		d[2] = (a - s[2]) + b
		d[3] = (a - s[3]) + b
	}
	for ; k < n; k++ {
		dst[k] = (a - src[k]) + b
	}
}

// scoreAlpha writes node i's mixture weights over its c candidates,
// softmax_q(Σ_k f_α(s_i − s_cand_k)_q), into ps.alpha.
func (ps *pairScorer) scoreAlpha(w *pairWorker, i, c int) {
	ps.hidden(w, headAlpha, i, c)
	k, hd := ps.k, &ps.head[headAlpha]
	logits := w.logit[:k*c]
	clear(logits)
	w.out.Rows, w.out.Cols, w.out.Data = k, c, logits
	tensor.MatMulInto(&w.out, hd.w2T, &w.hid)
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
func (ps *pairScorer) scoreTheta(w *pairWorker, i, c, comp int) {
	ps.hidden(w, headTheta, i, c)
	th := ps.theta[i*ps.stride:][:c]
	clear(th)
	w.out.Rows, w.out.Cols, w.out.Data = 1, c, th
	tensor.MatMulInto(&w.out, &ps.thetaRow[comp], &w.hid)
	b := ps.head[headTheta].b2[comp]
	for k := range th {
		th[k] += b
	}
	tensor.VSigmoid(th)
}
