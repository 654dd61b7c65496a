package core

import (
	"context"
	"fmt"

	"vrdag/internal/dyngraph"
	"vrdag/internal/nn"
	"vrdag/internal/obs"
	"vrdag/internal/tensor"
)

// This file implements conditional generation: encode an *observed*
// dynamic-graph prefix into the model's recurrent state, then let the
// generation stepper continue the sequence from there. It is the
// inference-time counterpart of the training recurrence — the paper's
// Algorithm 1 starts from H_0 = 0 because it synthesises from scratch;
// forecasting replaces that cold start with the hidden state the posterior
// and recurrence updater reach after walking the observed snapshots.
//
// Per observed step t the encoding pass computes, with training's layers
// on an eval tape:
//
//	ε_t  = biflow(G_t)                   observed-snapshot encoding (Eq. 5-7)
//	z_t  = µ_ψ(ε_t, H_{t-1})             posterior mean (Eq. 8-9, no sampling)
//	H_t  = GRU([ε_t ‖ z_t ‖ fT(t)], H_{t-1})   recurrence update (Eq. 13)
//
// Using the posterior mean instead of a reparameterized sample makes the
// encoding deterministic: the same prefix always yields the same
// ForecastState, so forecast variance comes entirely from the generation
// seed, never from the conditioning pass.
//
// Alongside H_t the state carries the stepper's calibration context — the
// exponentially-weighted node degrees that drive candidate weighting, the
// last observed snapshot for temporal-persistence replay, the standardized
// attribute AR(1) state, and the model-clock offset — so a forecast is
// indistinguishable from a generation run that had produced the observed
// prefix itself. A state encoded from a zero-length prefix is exactly the
// cold start: Forecast from it is byte-identical to GenerateOpts with the
// same options (pinned by TestForecastEmptyPrefixMatchesGenerate).

// ForecastState is the model's recurrent state after absorbing an observed
// snapshot prefix. It is created by Model.NewForecastState or Model.Encode,
// extended one snapshot at a time with Model.EncodeSnapshot, consumed (read
// only) by Model.Forecast / ForecastStream, and returned to the tensor
// arena with Release.
//
// A ForecastState is not safe for concurrent mutation: callers that share
// one state between an ingest writer and forecast readers (e.g. the serving
// layer's sessions) must synchronize. Forecasting itself never mutates the
// state — every Forecast call copies what it advances into per-request
// buffers and reads the last snapshot in place — so any number of
// concurrent forecasts may read a state that no one is encoding into, for
// as long as each call runs.
type ForecastState struct {
	h         *tensor.Matrix     // H_t after the last absorbed snapshot (N×d_h)
	degree    []float64          // exponentially-weighted degree per node
	prev      *dyngraph.Snapshot // structure-only copy of the last absorbed snapshot
	attrState *tensor.Matrix     // standardized attribute AR(1) state (nil until attrs observed)
	steps     int                // observed timesteps absorbed (the model-clock offset)
	released  bool

	// EncodeSnapshot's eval tape and gruInput's broadcast index (N zeros,
	// Time2Vec only), made by the first call and kept for the rest, so a
	// warm call records without building either. A Clone makes its own.
	ctx   *nn.Ctx
	zeros []int
}

// Steps returns how many observed snapshots the state has absorbed.
func (st *ForecastState) Steps() int { return st.steps }

// Release returns the state's pooled buffers to the tensor arena. The
// state must not be used afterwards. Idempotent.
func (st *ForecastState) Release() {
	if st.released {
		return
	}
	st.released = true
	if st.h != nil {
		tensor.Put(st.h)
		st.h = nil
	}
	if st.attrState != nil {
		tensor.Put(st.attrState)
		st.attrState = nil
	}
	if st.ctx != nil {
		st.ctx.Tape.Reset() // holds buffers only if an encode panicked
	}
	st.prev, st.degree, st.ctx, st.zeros = nil, nil, nil, nil
}

// Clone returns an independent deep copy of the state, e.g. to branch
// several what-if continuations off one encoded history. The clone owns
// fresh pooled buffers and must be Released separately.
func (st *ForecastState) Clone() *ForecastState {
	if st.released {
		return &ForecastState{released: true}
	}
	c := &ForecastState{steps: st.steps}
	if st.h != nil {
		c.h = tensor.Get(st.h.Rows, st.h.Cols)
		copy(c.h.Data, st.h.Data)
	}
	c.degree = append([]float64(nil), st.degree...)
	if st.prev != nil {
		c.prev = st.prev.Clone()
	}
	if st.attrState != nil {
		c.attrState = tensor.Get(st.attrState.Rows, st.attrState.Cols)
		copy(c.attrState.Data, st.attrState.Data)
	}
	return c
}

// NewForecastState returns the cold-start state: H_0 = 0, no history.
// Forecasting from it is equivalent to unconditional generation.
func (m *Model) NewForecastState() *ForecastState {
	n := m.Cfg.N
	return &ForecastState{
		h:      tensor.Get(n, m.Cfg.HiddenDim),
		degree: make([]float64, n),
	}
}

// EncodeSnapshot folds one observed snapshot into the state, advancing the
// recurrence by a single timestep with O(N+|E_t|) work and no retained
// reference to snap (the caller keeps ownership and may recycle it).
//
// Node-set alignment: snapshots over fewer than Cfg.N nodes are accepted
// and embedded into the low indices — the unobserved tail keeps its
// cold-start hidden state. Snapshots naming nodes outside the model's
// universe (N > Cfg.N) are rejected; stream-side ID mapping (package
// ingest) is the place to cap or drop unknown nodes. Attribute columns
// must match Cfg.F when present; a structure-only snapshot is fine even
// for an attributed model (the encoder zero-fills the missing features).
func (m *Model) EncodeSnapshot(st *ForecastState, snap *dyngraph.Snapshot) error {
	if st == nil || st.released {
		return fmt.Errorf("core: EncodeSnapshot on a released ForecastState")
	}
	if snap == nil {
		return fmt.Errorf("core: EncodeSnapshot on a nil snapshot")
	}
	n := m.Cfg.N
	if snap.N > n {
		return fmt.Errorf("core: snapshot has %d nodes, model universe is %d (unknown nodes; cap or drop them at ingest)", snap.N, n)
	}
	if snap.X != nil && m.Cfg.F > 0 && snap.X.Cols != m.Cfg.F {
		return fmt.Errorf("core: snapshot has %d attribute dims, model configured for %d", snap.X.Cols, m.Cfg.F)
	}
	inferenceStarts()
	enc, cleanup := m.alignSnapshot(snap)

	// ε_t, z_t = posterior mean, H_t = GRU([ε‖z‖fT(t)], H_{t-1}), on the
	// state's eval tape; H_t overwrites H_{t-1} in place. The encoder's and
	// the posterior's nodes but ε_t and z_t go back to the arena once the
	// GRU's inputs are recorded.
	if st.ctx == nil {
		st.ctx = nn.NewEvalCtx(tensor.NewTape())
		if m.Cfg.UseTime2Vec {
			st.zeros = make([]int, n)
		}
	}
	c := st.ctx
	tp := c.Tape
	h := tp.Const(st.h)
	eps := m.enc.Encode(c, enc)
	z := m.posteriorMean(c, eps, h)
	var buf [3]*tensor.Node
	in := m.gruInput(buf[:0], c, eps, z, st.steps, st.zeros)
	tp.ReleaseSince(0, in...)
	hNext := m.gru.Step(c, h, in...)
	copy(st.h.Data, hNext.Value.Data)
	tp.Reset()

	// Candidate-weighting degrees, same decay as the generation stepper.
	for v := 0; v < n; v++ {
		d := 0
		if v < snap.N {
			d = snap.OutDegree(v) + snap.InDegree(v)
		}
		st.degree[v] = 0.8*st.degree[v] + float64(d)
	}

	// Persistence context: a structure-only copy of the snapshot, rebuilt
	// in place so steady-state encoding allocates nothing once the edge
	// lists have grown to the stream's working set.
	if st.prev == nil {
		st.prev = dyngraph.NewSnapshot(n, 0)
	} else {
		st.prev.Recycle()
	}
	for u := 0; u < snap.N; u++ {
		for _, v := range snap.Out[u] {
			st.prev.AddEdge(u, v)
		}
	}

	m.cal.encodeAttrs(st, snap, n, m.Cfg.F) // the attribute AR(1) state

	if cleanup != nil {
		cleanup()
	}
	st.steps++
	return nil
}

// Encode runs the prefix-encoding pass over an observed sequence and
// returns the resulting state. ctx is checked once per snapshot; on
// cancellation the partial state is released and the context's error
// returned, so aborted encodes leak nothing. An empty prefix yields the
// cold-start state.
func (m *Model) Encode(ctx context.Context, prefix *dyngraph.Sequence) (*ForecastState, error) {
	st := m.NewForecastState()
	if prefix == nil {
		return st, nil
	}
	for _, snap := range prefix.Snapshots {
		if err := ctx.Err(); err != nil {
			st.Release()
			return nil, err
		}
		sp := obs.Start(ctx, "encode")
		if err := m.EncodeSnapshot(st, snap); err != nil {
			sp.SetErr(err).End()
			st.Release()
			return nil, err
		}
		sp.SetInt("t", int64(st.steps-1)).SetInt("edges", int64(snap.NumEdges())).End()
	}
	return st, nil
}

// Forecast generates opts.T future snapshots conditioned on the encoded
// observation prefix. The state is read, never mutated: repeated calls
// with different seeds branch independent futures off the same history.
// With a cold-start state (zero-length prefix) the output is byte-identical
// to GenerateOpts with the same options — conditioning strictly generalises
// generation.
func (m *Model) Forecast(ctx context.Context, st *ForecastState, opts GenOptions) (*dyngraph.Sequence, error) {
	if err := m.checkForecastState(st); err != nil {
		return nil, err
	}
	return m.collect(ctx, opts, st)
}

// ForecastStream is Forecast through the streaming engine: snapshots are
// yielded as they are decoded and recycled after each yield returns, so an
// in-flight forecast holds O(1) snapshots resident regardless of horizon.
// It inherits GenerateStream's whole contract — per-timestep ctx checks,
// recycled buffers on every exit path, yield-error abort.
func (m *Model) ForecastStream(ctx context.Context, st *ForecastState, opts GenOptions, yield func(*dyngraph.Snapshot) error) error {
	if err := m.checkForecastState(st); err != nil {
		return err
	}
	return m.generate(ctx, opts, yield, true, st)
}

func (m *Model) checkForecastState(st *ForecastState) error {
	switch {
	case st == nil:
		return fmt.Errorf("core: Forecast requires a ForecastState (use NewForecastState or Encode)")
	case st.released:
		return fmt.Errorf("core: Forecast on a released ForecastState")
	case st.h == nil || st.h.Rows != m.Cfg.N || st.h.Cols != m.Cfg.HiddenDim:
		return fmt.Errorf("core: ForecastState shape does not match model (state %v, want %dx%d)", st.h, m.Cfg.N, m.Cfg.HiddenDim)
	}
	return nil
}

// alignSnapshot embeds a snapshot over fewer than Cfg.N nodes into the
// model's node universe (low indices observed, tail empty). The returned
// cleanup, when non-nil, must run after the encoder is done with the view.
// Full-width snapshots pass through untouched.
func (m *Model) alignSnapshot(snap *dyngraph.Snapshot) (*dyngraph.Snapshot, func()) {
	n := m.Cfg.N
	if snap.N == n {
		return snap, nil
	}
	view := &dyngraph.Snapshot{N: n, Out: make([][]int, n), In: make([][]int, n)}
	copy(view.Out, snap.Out) // shares the underlying neighbour lists
	copy(view.In, snap.In)
	if snap.X != nil && m.Cfg.F > 0 {
		x := tensor.Get(n, m.Cfg.F)
		for i := 0; i < snap.N; i++ {
			copy(x.Row(i), snap.X.Row(i))
		}
		view.X = x
		return view, func() { tensor.Put(x) }
	}
	return view, nil
}
