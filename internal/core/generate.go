package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
	"weak"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/obs"
	"vrdag/internal/tensor"
)

// GenOptions controls inference (Algorithm 1).
type GenOptions struct {
	T    int   // number of snapshots to generate (required)
	Seed int64 // RNG seed for this generation run

	// Source, when non-nil, supplies the random stream for this run and
	// takes precedence over Seed. Generation is otherwise read-only on the
	// model, so concurrent GenerateOpts calls on one trained model are safe
	// as long as each call gets its own Source (rand.Source values are not
	// safe for shared use). The engine may draw from it on a decode helper
	// goroutine at any point of the call, while a stream's yield runs
	// too, so the caller must not use it until the call returns.
	Source rand.Source

	// DynamicNodes enables the node addition/deletion extension of
	// Section III-H: nodes isolated for Tdel consecutive steps leave the
	// active set; new nodes join at the empirical activation rate with
	// hidden states drawn around the mean graph state.
	DynamicNodes bool
	Tdel         int // isolation threshold (default 3)

	// Parallel enables multi-goroutine decoding (default true via
	// Generate; set explicitly in GenerateOpts).
	Parallel bool
}

// Generate synthesises a dynamic attributed graph with T snapshots using
// the trained prior and decoder (Algorithm 1 of the paper).
func (m *Model) Generate(t int) (*dyngraph.Sequence, error) {
	return m.GenerateOpts(GenOptions{T: t, Seed: m.Cfg.Seed + 1, Parallel: true})
}

// GenerateOpts synthesises a sequence with explicit options.
func (m *Model) GenerateOpts(opts GenOptions) (*dyngraph.Sequence, error) {
	return m.GenerateCtx(context.Background(), opts)
}

// GenerateCtx is GenerateOpts with cooperative cancellation: ctx is
// checked once per timestep, and when it fires the partial sequence is
// discarded and the per-request pooled state released. It is a thin
// collector over the streaming engine, so its output is identical to
// GenerateStream's for the same options.
func (m *Model) GenerateCtx(ctx context.Context, opts GenOptions) (*dyngraph.Sequence, error) {
	return m.collect(ctx, opts, nil)
}

// collect runs generate in collecting mode and returns the sequence.
func (m *Model) collect(ctx context.Context, opts GenOptions, init *ForecastState) (*dyngraph.Sequence, error) {
	g := &dyngraph.Sequence{N: m.Cfg.N, F: m.Cfg.F, Snapshots: make([]*dyngraph.Snapshot, 0, max(opts.T, 0))}
	if err := m.generate(ctx, opts, func(s *dyngraph.Snapshot) error {
		g.Snapshots = append(g.Snapshots, s)
		return nil
	}, false, init); err != nil {
		return nil, err
	}
	return g, nil
}

// GenerateStream runs Algorithm 1 as a producer: each finished snapshot is
// handed to yield as soon as it is decoded, and after yield returns the
// engine takes the snapshot back — its adjacency lists are reused and its
// attribute buffer returned to the tensor arena — so an in-flight
// streaming request holds O(1) snapshots resident regardless of T,
// against the O(T·(N²+N·F)) a collected sequence occupies.
//
// The snapshot passed to yield is only valid for the duration of the
// call; a consumer that needs to retain it must Clone it. A non-nil error
// from yield aborts generation and is returned verbatim. ctx is checked
// once per timestep; on cancellation the per-request buffers are released
// back to the arena and the context's error is returned. The yielded
// snapshots are identical, value for value, to the sequence GenerateOpts
// returns for the same options.
func (m *Model) GenerateStream(ctx context.Context, opts GenOptions, yield func(*dyngraph.Snapshot) error) error {
	return m.generate(ctx, opts, yield, true, nil)
}

// generate drives the stepper in streaming (recycle) or collecting mode.
// init, when non-nil, warm-starts the stepper from an encoded observation
// prefix (the forecasting path); nil reproduces unconditional generation.
func (m *Model) generate(ctx context.Context, opts GenOptions, yield func(*dyngraph.Snapshot) error, recycle bool, init *ForecastState) error {
	if opts.T <= 0 {
		return fmt.Errorf("core: GenOptions.T must be positive, got %d", opts.T)
	}
	if opts.Tdel == 0 {
		opts.Tdel = 3
	}
	st := m.newGenState(opts, recycle, init)
	defer st.release()
	err := st.run(ctx, yield)
	// Reached between steps only: a request whose step or consumer panics
	// leaves its scratch to the collector, mid-write as it may be.
	st.clean = true
	return err
}

// run decodes opts.T snapshots into yield.
func (st *genState) run(ctx context.Context, yield func(*dyngraph.Snapshot) error) error {
	traced := obs.FromContext(ctx) != nil
	for t := 0; t < st.opts.T; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !traced {
			if err := yield(st.step(t)); err != nil {
				return err
			}
			continue
		}
		sp := obs.Start(ctx, "decode")
		snap := st.step(t)
		sp.SetInt("t", int64(t)).SetInt("edges", int64(snap.NumEdges())).End()
		if err := yield(snap); err != nil {
			return err
		}
	}
	return nil
}

// genState is the reusable stepper behind GenerateCtx and GenerateStream:
// the per-request mutable state of Algorithm 1. Its O(N) decode buffers
// are the embedded genScratch, taken from the model's scratchPool, which
// the request returns when it ends between steps.
type genState struct {
	*genScratch
	m    *Model
	cal  *calibration // nil with DegreeCalibration off
	opts GenOptions
	rng  *rand.Rand
	n    int

	clean bool // the request ended between steps: release may keep the scratch

	h     *tensor.Matrix // H_{t-1}; starts at 0 (Algorithm 1, line 1)
	prevX *tensor.Matrix
	prev  *dyngraph.Snapshot

	// timeOff shifts the model clock when generation continues an encoded
	// observation prefix: snapshot t of the run is timestep timeOff+t of
	// the combined sequence, which keeps the Time2Vec embedding, the
	// per-step edge-count targets, and the activation statistics aligned
	// with where the observed history left off. Zero for unconditional
	// generation. borrowed is the prefix's last snapshot, the first prev:
	// it stays the ForecastState's, so the engine reads it in place and
	// never recycles or keeps it.
	timeOff  int
	borrowed *dyngraph.Snapshot

	// Streaming mode: a snapshot handed to the consumer is taken back once
	// it leaves the one-step history window and reused for a later
	// timestep, holding resident snapshot memory at O(1) per request.
	recycle bool
	spare   *dyngraph.Snapshot

	// The pair scorer over the scratch's pairBufs. The struct, with its
	// atomics and bells, is the request's own: a stopped helper of an
	// earlier request may still read its scorer's.
	ps *pairScorer
	// The passes, bound once: a method value posted afresh allocates.
	candPass, uniPass, alphaPass, thetaPass func(*pairWorker, int)

	// The main-stream draws of a step that precede its component draws
	// (drawStep): the latent noise (zNoise), the snapshot holding the
	// replayed persistent edges and how many there are, and the per-node
	// seeds. next is non-nil when the previous step made them; otherwise
	// the step makes them at its start.
	next      *dyngraph.Snapshot
	persisted float64
}

// genScratch holds the buffers a generation or forecast request decodes
// with: the pair scorer's, the stepper's O(N) state and noise, the
// candidate CDF, the attribute decoder's edge lists, the eval tape and the
// streaming mode's recycled snapshots. No value in them outlives the
// request: each request writes what it reads. A model keeps the scratch of
// its last finished request (scratchPool), so after its first request a
// model decodes without garbage. A scratch holds no arena buffer: the
// arena's gets and puts balance over every request as before.
type genScratch struct {
	shape decodeShape
	pairBufs
	cdf *candCDF // candidate distribution of the step drawn last; nil with exact decoding

	// ctx records each timestep's forward on one eval tape (parameters are
	// constants, so no gradient is tracked); step resets it once H_t and
	// the decoded X are copied out.
	ctx *nn.Ctx
	// seeded is the main stream of the requests without a
	// GenOptions.Source, made by the first and re-seeded by the rest: Seed
	// leaves the state NewSource would build.
	seeded *rand.Rand

	active   []bool
	isolated []int
	degree   []float64 // running degree for candidate weighting
	seeds    []int64
	comp     []int
	u        []float64 // a step's component and Bernoulli uniforms (drawUniforms)
	zNoise   []float64 // N×d_z, row-major as sampleLatent reads it
	// composeAttrs' observation noise, N×F column-major (element j·N+i),
	// and its working set; nil when the request does not compose
	// attributes.
	xNoise []float64
	attr   *attrScratch
	mean   []float64 // updateActiveSet's mean hidden state, d_h
	zeros  []int     // gruInput's broadcast index, N zeros (Time2Vec only)

	// esrc, edst are the attribute decoder's edge lists, with room for
	// the N self-loops GAT.Apply appends.
	esrc, edst []int
	// snaps holds recycled snapshots for a streaming request to decode
	// into, at most keptSnapshots of them.
	snaps []*dyngraph.Snapshot
}

// keptSnapshots is how many recycled snapshots a scratch keeps: a
// streaming request's working set, the one-step history window, the
// snapshot decoded and the next step's, drawn ahead.
const keptSnapshots = 3

func (m *Model) newGenScratch(sh decodeShape) *genScratch {
	n := sh.n
	sc := &genScratch{
		shape:    sh,
		pairBufs: *m.newPairBufs(sh),
		ctx:      nn.NewEvalCtx(tensor.NewTape()),
		active:   make([]bool, n),
		isolated: make([]int, n),
		degree:   make([]float64, n),
		seeds:    make([]int64, n),
		comp:     make([]int, n),
		zNoise:   make([]float64, n*m.Cfg.LatentDim),
		mean:     make([]float64, m.Cfg.HiddenDim),
	}
	if !sh.exact() {
		sc.cdf = newCandCDF(n)
	}
	if m.Cfg.UseTime2Vec {
		sc.zeros = make([]int, n)
	}
	return sc
}

// scratchPool keeps the genScratch of a model's last finished request, the
// spare, so that the next request decodes without garbage. A request that
// finishes while another holds the spare leaves its own to the collector,
// as does one whose shape no longer matches. The spare is dropped once it
// has gone unused for scratchIdle, so an idle process gives its memory
// back at the next collection after that.
type scratchPool struct {
	mu    sync.Mutex
	spare *genScratch
	// idle drops spare; every put restarts it. It holds the pool weakly:
	// a model nobody references is collected with its spare at once, not
	// a minute later.
	idle *time.Timer
}

// scratchIdle is how long a model's spare scratch outlives its last
// request.
const scratchIdle = time.Minute

// get takes the spare if it has shape sh, and returns nil otherwise. A
// spare of another shape (CandidateCap or GOMAXPROCS changed since it was
// built) is left to the collector.
func (p *scratchPool) get(sh decodeShape) *genScratch {
	p.mu.Lock()
	sc := p.spare
	p.spare = nil
	p.mu.Unlock()
	if sc == nil || sc.shape != sh {
		return nil
	}
	return sc
}

// put keeps sc as the spare unless one is held already, and restarts the
// idle timer. A timer that fires while put runs may drop the new spare:
// that costs the next request a fresh scratch, nothing more.
func (p *scratchPool) put(sc *genScratch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spare != nil {
		return
	}
	p.spare = sc
	if p.idle == nil {
		wp := weak.Make(p)
		p.idle = time.AfterFunc(scratchIdle, func() {
			if p := wp.Value(); p != nil {
				p.drop()
			}
		})
	} else {
		p.idle.Reset(scratchIdle)
	}
}

// drop lets the collector have the spare.
func (p *scratchPool) drop() {
	p.mu.Lock()
	p.spare = nil
	p.mu.Unlock()
}

// popSnapshot pops a recycled snapshot, or returns nil.
func (sc *genScratch) popSnapshot() *dyngraph.Snapshot {
	k := len(sc.snaps) - 1
	if k < 0 {
		return nil
	}
	s := sc.snaps[k]
	sc.snaps[k] = nil
	sc.snaps = sc.snaps[:k]
	return s
}

// keepSnapshot recycles s and keeps it while there is room.
func (sc *genScratch) keepSnapshot(s *dyngraph.Snapshot) {
	s.Recycle()
	if len(sc.snaps) < keptSnapshots {
		sc.snaps = append(sc.snaps, s)
	}
}

func (m *Model) newGenState(opts GenOptions, recycle bool, init *ForecastState) *genState {
	inferenceStarts()
	n := m.Cfg.N
	sh := m.decodeShape(opts.Parallel)
	sc := m.scratch.get(sh)
	if sc == nil {
		sc = m.newGenScratch(sh)
	}
	var rng *rand.Rand
	switch {
	case opts.Source != nil:
		rng = rand.New(opts.Source)
	case sc.seeded == nil:
		sc.seeded = rand.New(rand.NewSource(opts.Seed))
		rng = sc.seeded
	default:
		sc.seeded.Seed(opts.Seed)
		rng = sc.seeded
	}
	st := &genState{
		genScratch: sc, m: m, cal: m.calibrator(), opts: opts, rng: rng, n: n, recycle: recycle,
		h:  tensor.Get(n, m.Cfg.HiddenDim),
		ps: m.pairScorerOn(&sc.pairBufs, sh),
	}
	st.candPass, st.uniPass = st.buildCandidates, st.drawUniforms
	st.alphaPass, st.thetaPass = st.scoreAlpha, st.scoreTheta
	switch {
	case m.Cfg.F == 0 || !st.cal.composes():
		// A kept xNoise would have step draw noise nothing composes.
		sc.xNoise, sc.attr = nil, nil
	case sc.xNoise == nil:
		sc.xNoise = make([]float64, n*m.Cfg.F)
		sc.attr = newAttrScratch(m.Cfg.F)
	}
	for i := range st.active {
		st.active[i] = true
	}
	clear(st.isolated)
	clear(st.degree)
	if init != nil {
		// Warm-start from the encoded prefix. The buffers the stepper
		// mutates are copied, so the ForecastState stays reusable for
		// further Forecast calls (and further EncodeSnapshot absorption) on
		// the same session; the last snapshot is only read, in place.
		copy(st.h.Data, init.h.Data)
		copy(st.degree, init.degree)
		st.prev, st.borrowed = init.prev, init.prev
		if init.attrState != nil {
			st.prevX = tensor.Get(init.attrState.Rows, init.attrState.Cols)
			copy(st.prevX.Data, init.attrState.Data)
		}
		st.timeOff = init.steps
	}
	return st
}

// release returns every live buffer of an in-flight generation to the
// arena and, when the request ended between steps, its scratch to the
// model's pool. It runs on all exit paths, including cancellation and
// consumer errors, so aborted requests leak nothing (collected snapshots,
// which have escaped to the caller, are exempt).
func (st *genState) release() {
	// A step that panicked may leave a candidate pass posted, which reads
	// st.prev, recycled below; the next step's uniforms stay posted across
	// the yield and draw from the caller's Source.
	st.ps.join()
	st.ps.stopHelpers()
	st.ctx.Tape.Reset()
	if st.h != nil {
		tensor.Put(st.h)
		st.h = nil
	}
	if st.prevX != nil {
		tensor.Put(st.prevX)
		st.prevX = nil
	}
	// The engine's own snapshots: in streaming mode all three, otherwise
	// a next step drawn ahead but never decoded.
	for _, s := range [...]*dyngraph.Snapshot{st.prev, st.next, st.spare} {
		if s != nil && s != st.borrowed && (st.recycle || s == st.next) {
			st.keepSnapshot(s)
		}
	}
	st.prev, st.spare, st.next, st.borrowed = nil, nil, nil, nil
	if st.clean {
		st.m.scratch.put(st.genScratch)
	}
	st.genScratch = nil
}

// takeSnapshot returns the snapshot to decode the next timestep into: the
// recycled previous-previous snapshot or a pooled one when streaming, a
// fresh one otherwise. The attribute matrix is attached by the decoder,
// so the structure-only allocation suffices in both modes.
func (st *genState) takeSnapshot() *dyngraph.Snapshot {
	if s := st.spare; s != nil {
		st.spare = nil
		return s
	}
	if st.recycle {
		if s := st.popSnapshot(); s != nil {
			return s
		}
	}
	return dyngraph.NewSnapshot(st.n, 0)
}

// step decodes snapshot t and advances the recurrent state. t counts from
// zero within this run; the model clock (Time2Vec, per-step calibration
// targets) runs at timeOff+t so forecasts continue the observed timeline.
//
// A step's candidate sets, and so how many uniforms it reads, depend only
// on the previous snapshot, the running degrees, the active set and
// per-node seeds, never on H_t. So once snapshot t's edges are drawn, step
// t makes step t+1's draws (drawStep), posts the pass they feed (capped:
// the candidates, joined before snapshot t is returned; exact: the
// uniforms, joined before step t+1's α pass) and runs its own attribute
// decoder, encoder and GRU meanwhile. The first step draws at its start,
// and so does every step under DynamicNodes, whose updateActiveSet draws
// after the GRU. Either way the main stream is drawn in one order.
func (st *genState) step(t int) *dyngraph.Snapshot {
	m, n, ps := st.m, st.n, st.ps
	clock := st.timeOff + t
	c := st.ctx
	tp := c.Tape
	h := tp.Const(st.h)

	// An idle P takes tens of µs to wake: ring the helpers now, so that
	// they are up by the time the prior and the hoist have run and the α
	// pass is posted (drawing here, drawStep's pass before it; drawing the
	// next exact step ahead, its uniforms soon after θ).
	ahead := t+1 < st.opts.T && !st.opts.DynamicNodes
	snap, passes := st.next, 2 // α, θ
	st.next = nil
	if snap == nil {
		passes++
	}
	if ahead && ps.exact {
		passes++
	}
	if ps.fansOut(st.active) {
		ps.wake(passes)
	}
	if snap == nil {
		snap = st.takeSnapshot()
		st.drawStep(snap)
	}

	// Line 3: sample temporal latent variables from the prior. Each phase
	// of the step returns its intermediates to the arena once what the
	// rest of the step reads is recorded (Tape.ReleaseSince; the tape was
	// reset at the end of the last step, so the range is all of this
	// step's recording): here the prior's, keeping Z_t.
	mu, logSig := m.prior(c, h)
	z := tp.Owned(sampleLatent(mu.Value, logSig.Value, st.zNoise))
	tp.ReleaseSince(0, z)
	s := tp.ConcatCols(z, h) // S_t = [Z_t ‖ H_{t-1}]

	// Line 4: decode the adjacency via the MixBernoulli sampler.
	st.decodeStructure(snap, s.Value, clock)
	for i := range st.xNoise { // composeAttrs' noise comes next in the stream
		st.xNoise[i] = st.rng.NormFloat64()
	}

	// Bookkeeping for candidate weighting and the dynamic-node extension.
	for v := 0; v < n; v++ {
		d := snap.OutDegree(v) + snap.InDegree(v)
		st.degree[v] = 0.8*st.degree[v] + float64(d)
		if st.opts.DynamicNodes {
			if d == 0 {
				st.isolated[v]++
			} else {
				st.isolated[v] = 0
			}
		}
	}

	// Rotate the one-step history window. The snapshot leaving it was
	// yielded before this step began and the draws that read it are made,
	// so in streaming mode both the consumer and the engine are done with
	// it and its buffers can be reclaimed; a borrowed one stays the
	// ForecastState's.
	old := st.prev
	st.prev = snap
	if old != nil && old != st.borrowed && st.recycle {
		old.Recycle()
		st.spare = old
	}
	if ahead {
		st.next = st.takeSnapshot()
		if !ps.exact && ps.fansOut(st.active) {
			ps.wake(1)
		}
		st.drawStep(st.next)
	}

	// Line 5: decode attributes conditioned on the new topology: the
	// likelihood mean, which the calibration turns into a sample.
	if m.Cfg.F > 0 {
		st.esrc, st.edst = edgeLists(st.esrc, st.edst, snap, n)
		dec := m.attrMLP.Apply(c, m.gat.Apply(c, s, st.esrc, st.edst, n))
		x := tensor.Get(n, m.Cfg.F)
		copy(x.Data, dec.Value.Data)
		state := st.cal.composeAttrs(x, st.prevX, st.xNoise, st.attr)
		if st.prevX != nil && state != st.prevX {
			tensor.Put(st.prevX)
		}
		st.prevX = state
		snap.X = x // owned by the snapshot until it escapes or is recycled
	}
	tp.ReleaseSince(0, z) // S_t and the attribute decoder's nodes

	// Line 7: update hidden states with the recurrence updater. H_{t-1}
	// is dead once H_t is recorded, so H_t overwrites it in place. After
	// the last snapshot nothing reads H_T (the request's state is released
	// and a forecast's is its own copy) unless DynamicNodes'
	// updateActiveSet runs once more, so the final step skips it.
	if t+1 < st.opts.T || st.opts.DynamicNodes {
		eps := m.enc.Encode(c, snap)
		in := m.gruInput(c, eps, z, clock, st.zeros)
		tp.ReleaseSince(0, in) // the encoder's nodes and Z_t
		hNext := m.gru.Step(c, in, h)
		copy(st.h.Data, hNext.Value.Data)
	}
	tp.Reset()

	if st.opts.DynamicNodes {
		m.updateActiveSet(st.active, st.isolated, st.h, st.mean, clock, st.opts.Tdel, st.rng)
	}
	if !ps.exact {
		ps.join() // step t+1's candidate pass reads snap, which now leaves
	}
	return snap
}

// drawStep makes, in this order, every main-stream draw of the step to be
// decoded into snap that comes before its component draws: the latent
// noise, the persistence replay against st.prev (into snap) and one seed
// per node. With capped decoding it then fills the candidate CDF from the
// running degrees and posts the candidate pass, which sets the candidate
// counts; with exact decoding it sets them and posts the step's uniforms
// as a one-chunk pass. decodeStructure joins either at the latest.
func (st *genState) drawStep(snap *dyngraph.Snapshot) {
	n, rng, active := st.n, st.rng, st.active
	for i := range st.zNoise {
		st.zNoise[i] = rng.NormFloat64()
	}

	st.persisted = st.cal.replay(snap, st.prev, active, rng)

	// Pre-draw per-node RNG seeds so the parallel path stays deterministic.
	// Each node's candidate draws come from a per-worker splitmix64 source
	// re-seeded per node: seeding Go's default source costs ~600 modular
	// multiplications to fill 607 state words, of which a node consumes only
	// a handful — it was ~20% of a whole generation run. (Exact decoding
	// samples no candidates but draws the seeds all the same: the main
	// stream's draw order is part of the output.)
	for i := range st.seeds {
		st.seeds[i] = rng.Int63()
	}

	// Candidate weights: degree-proportional with +1 smoothing.
	if cdf := st.cdf; cdf != nil {
		for v := 0; v < n; v++ {
			w := st.degree[v] + 1
			if !active[v] {
				w = 0
			}
			cdf.cum[v+1] = cdf.cum[v] + w
		}
		cdf.index()
		st.ps.post(st.candPass)
	} else {
		for i, a := range active {
			st.ps.cnt[i] = 0
			if a {
				st.ps.cnt[i] = n - 1
			}
		}
		st.ps.postOne(st.uniPass)
	}
}

// decodeStructure implements the one-shot MixBernoulli decoding (Eq. 11)
// into snap, which drawStep has already given its replayed persistent
// edges. For every active node it scores the candidate destination set,
// aggregates the mixture weights α_i, then samples edges from the selected
// component, its Bernoulli means scaled by the calibration's λ.
//
// The candidate sets (capped decoding) and the scoring (pairScorer,
// decode.go) run node-parallel in passes around the serial component
// draws. The main stream is read in one fixed order by one goroutine at a
// time: drawStep's draws, then the step's uniforms in one go (ahead of this
// call, or during its α pass), which the components and edges read in node
// order. So the output depends on neither Parallel nor the fan-out.
func (st *genState) decodeStructure(snap *dyngraph.Snapshot, s *tensor.Matrix, t int) {
	n, ps := st.n, st.ps

	// Mixture weights over the candidate sets, node by node on the workers.
	ps.hoist(s)
	ps.join() // drawStep's pass, if still open
	ps.post(st.alphaPass)
	if !ps.exact {
		st.drawUniforms(nil, 0) // the candidate counts are known by now
	}
	ps.join()

	// Each node's mixture component, in node order; only then is it known
	// which θ row a node needs.
	u, comp := st.u, st.comp
	for i := 0; i < n; i++ {
		if ps.cnt[i] > 0 {
			comp[i] = sampleCategorical(ps.alpha[i*ps.k:(i+1)*ps.k], u[0])
			u = u[1:]
		}
	}
	ps.post(st.thetaPass)
	ps.join()

	// Summed serially in node order: λ must not depend on the fan-out.
	expected := 0.0
	for i := 0; i < n; i++ {
		for _, th := range ps.theta[i*ps.stride:][:ps.cnt[i]] {
			expected += th
		}
	}

	lambda := st.cal.lambda(t, n, expected, st.persisted)

	// Bernoulli sampling in node order (a uniform is below 1: no clamp).
	for i := 0; i < n; i++ {
		c := ps.cnt[i]
		for k, th := range ps.theta[i*ps.stride:][:c] {
			if u[k] < th*lambda {
				snap.AddEdge(i, ps.candidate(i, k))
			}
		}
		u = u[c:]
	}
	if len(u) != 0 {
		panic(fmt.Sprintf("core: a decode step used %d of the %d uniforms drawn for it", len(st.u)-len(u), len(st.u)))
	}
}

// drawUniforms draws from the main stream the uniforms decodeStructure
// reads, in that order, into the scratch's u: one per node with candidates, for its
// component, then one per candidate, for its Bernoulli trial. drawStep
// posts it as a one-chunk pass (w and i unused) under exact decoding; under
// capped decoding the caller runs it while the helpers score α.
func (st *genState) drawUniforms(_ *pairWorker, _ int) {
	need := 0
	for _, c := range st.ps.cnt {
		if c > 0 {
			need += 1 + c
		}
	}
	u := slices.Grow(st.u[:0], need)[:need]
	for i := range u {
		u[i] = st.rng.Float64()
	}
	st.u = u
}

// buildCandidates is capped decoding's candidate pass over node i: draw
// its set from its own seed, the previous snapshot and the candidate CDF.
func (st *genState) buildCandidates(w *pairWorker, i int) {
	ps, c := st.ps, 0
	if st.active[i] {
		w.nsrc.Seed(st.seeds[i])
		c = len(candidates(ps.cands[i*ps.stride:][:0:ps.stride], i, st.prev, st.cdf, w.nrng, w.mark))
	}
	ps.cnt[i] = c
}

// scoreAlpha is the first scoring pass over node i: its mixture weights
// over its candidate set (with exact decoding, every other node).
func (st *genState) scoreAlpha(w *pairWorker, i int) {
	if c := st.ps.cnt[i]; c > 0 {
		st.ps.scoreAlpha(w, i, c)
	}
}

// scoreTheta is the second scoring pass: node i's Bernoulli means under
// the component it drew.
func (st *genState) scoreTheta(_ *pairWorker, i int) {
	if c := st.ps.cnt[i]; c > 0 {
		st.ps.scoreTheta(i, c, st.comp[i])
	}
}

// splitmixSource is the per-node candidate RNG: a splitmix64 stream whose
// seeding is one 64-bit store, so deriving a fresh deterministic stream
// per (node, timestep) is effectively free. It only feeds candidate
// sampling — the model's main RNG is untouched.
type splitmixSource struct{ s uint64 }

func (s *splitmixSource) Seed(seed int64) { s.s = uint64(seed) }

func (s *splitmixSource) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// updateActiveSet applies the Section III-H extension: deletion after Tdel
// isolated steps, additions at the empirical activation rate with hidden
// states sampled around the mean graph state h̄, which it computes into
// mean (h.Cols long).
func (m *Model) updateActiveSet(active []bool, isolated []int, h *tensor.Matrix, mean []float64, t, tdel int, rng *rand.Rand) {
	n := m.Cfg.N
	for v := 0; v < n; v++ {
		if active[v] && isolated[v] >= tdel {
			active[v] = false
			row := h.Row(v)
			for j := range row {
				row[j] = 0 // frozen: the node leaves the generative process
			}
		}
	}
	// Mean hidden state over active nodes.
	clear(mean)
	cnt := 0
	for v := 0; v < n; v++ {
		if !active[v] {
			continue
		}
		row := h.Row(v)
		for j := range mean {
			mean[j] += row[j]
		}
		cnt++
	}
	if cnt > 0 {
		for j := range mean {
			mean[j] /= float64(cnt)
		}
	}
	// Expected additions: empirical activation rate for this step.
	rate := 0.0
	if t < len(m.activeStats) {
		rate = m.activeStats[t]
	}
	nAdd := poisson(rate, rng)
	for a := 0; a < nAdd; a++ {
		// Reactivate a random inactive node with state ~ N(h̄, 0.1²).
		v := rng.Intn(n)
		tries := 0
		for active[v] && tries < n {
			v = (v + 1) % n
			tries++
		}
		if active[v] {
			break // no inactive nodes left
		}
		active[v] = true
		isolated[v] = 0
		row := h.Row(v)
		for j := range row {
			row[j] = mean[j] + 0.1*rng.NormFloat64()
		}
	}
}

func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates.
		v := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func sampleCategorical(w []float64, u float64) int {
	acc := 0.0
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
