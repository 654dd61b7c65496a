package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vrdag/internal/core"
	"vrdag/internal/durable"
	"vrdag/internal/dyngraph"
	"vrdag/internal/gnn"
	"vrdag/internal/ingest"
	"vrdag/internal/metrics"
	"vrdag/internal/nn"
	"vrdag/internal/obs"
	"vrdag/internal/server"
	"vrdag/internal/tensor"
)

// layerNames is every per-layer metric of the traced run, the same list
// on every workload (BENCHMARK.json repeats it; the smoke test compares
// the two). Span-derived metrics of a layer the workload never enters are
// measured by the probe rigs, not reported as absent: the contract wants
// every name on every traced run.
var layerNames = []string{
	"tensor.gemm_node_us", "tensor.gemm_cand_us", "tensor.spmm_us", "tensor.act_us", "tensor.tape_step_us",
	"tensor.pool_hit_ratio", "tensor.pool_gets_per_op", "tensor.pool_peak_live_mb",
	"nn.gru_forward_us", "nn.mlp_forward_us", "nn.adam_step_us",
	"gnn.biflow_forward_us",
	"core.tape_peak_live_mb", "core.decode_step_small_ms", "core.decode_step_large_ms",
	"core.edges_per_snapshot", "core.allocs_per_snapshot",
	"core.fit_epoch_ms", "core.encode_snapshot_ms", "core.forecast_ms", "core.save_load_ms",
	"dyngraph.json_encode_ms", "dyngraph.json_bytes_per_op", "dyngraph.adjcsr_us",
	"ingest.fold_us", "ingest.edges_per_s",
	"durable.wal_append_us", "durable.wal_append_p95_us", "durable.replay_records_per_s", "durable.write_atomic_ms",
	"server.handler_ingest_ms", "server.handler_forecast_ms", "server.handler_generate_ms", "server.handler_stream_ms",
	"server.transport_ingest_ms", "server.transport_forecast_ms",
	"server.stage.admit_us", "server.stage.quota_us", "server.stage.ingest_fold_us", "server.stage.encode_us",
	"server.stage.wal_append_us", "server.stage.decode_ms", "server.stage.stream_flush_us", "server.stage.unattributed_us",
	"server.shed_share", "server.recover_ms", "server.primary_p95_ms", "server.secondary_p95_ms",
	"cluster.ring_owners_ns", "cluster.local_ingest_ms", "cluster.proxied_ingest_ms", "cluster.proxy_hop_ms",
	"cluster.stage.proxy_us", "cluster.stage.replicate_us", "cluster.acks_replicated_share",
	"cluster.retries_per_op", "cluster.queue_len_max", "cluster.cpu_ms_per_ack_over_single",
	"obs.trace_overhead_pct", "obs.spans_per_op", "obs.spans_dropped", "bench.trace_overhead_pct",
	"metrics.degree_mmd", "metrics.attr_jsd", "metrics.compare_ms", "datasets.replica_ms",
}

// bigRing is the tracer of the traced run's servers: the default tracer
// with a ring that holds a whole round, so every op's trace can still be
// read by id when the round ends. Timed runs keep the default.
func bigRing() *obs.Tracer { return obs.New(obs.Config{Ring: 1 << 13, Logger: quiet}) }

// runTraced is the traced run: the workload's round replayed with spans
// around every call into a layer, then every layer probed on its own.
func runTraced(sp *spec, seed int64) (result, map[string]any, error) {
	layer := make(map[string]float64, len(layerNames))
	detail := map[string]any{}

	r, err := sp.setup(sp, seed, rigOpts{tracer: bigRing})
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	sched := sp.schedule(seed)
	// The plain round runs between the two traced ones, so that whatever
	// drifts over the three rounds lands on both sides of the comparison.
	rec := newRecorder()
	before := tensor.ReadPoolStats()
	tensor.ResetPoolPeakLive()
	var rounds [3]roundResult
	for i, rec := range []*recorder{rec, nil, rec} {
		runtime.GC()
		rounds[i] = runRound(r, sched, sp.segment, i, rec)
	}
	plain, traced := rounds[1], []roundResult{rounds[0], rounds[2]}
	after := tensor.ReadPoolStats()
	if sr, ok := r.(*serveRig); ok {
		sr.collectObs(rec)
	}
	failed := 0
	for round, rr := range rounds {
		failed += rr.failed
		for _, err := range rr.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		}
		if err := r.endRound(round); err != nil {
			r.close()
			return result{}, nil, err
		}
	}
	r.close()
	spansPath := filepath.Join("out", sp.name+".spans.ndjson")
	if err := rec.write(spansPath); err != nil {
		return result{}, nil, err
	}
	ops := float64(3 * sp.opsPerRound())
	layer["bench.trace_overhead_pct"] = (plain.opsPerS(sp)/((traced[0].opsPerS(sp)+traced[1].opsPerS(sp))/2) - 1) * 100
	gets := float64(after.Gets - before.Gets)
	layer["tensor.pool_gets_per_op"] = gets / ops
	layer["tensor.pool_hit_ratio"] = float64(after.Hits-before.Hits) / max(gets, 1)
	layer["tensor.pool_peak_live_mb"] = float64(after.PeakLiveBytes) / (1 << 20)
	detail["spans"] = len(rec.spans)
	detail["spans_file"] = filepath.Join("bench", spansPath)
	detail["self_ms_by_span"] = rec.selfTimes()

	if err := probeCompute(layer, seed, sp.probeScale); err != nil {
		return result{}, nil, fmt.Errorf("compute probes: %w", err)
	}
	single, err := probeServe(layer, detail, seed)
	if err != nil {
		return result{}, nil, fmt.Errorf("server probes: %w", err)
	}
	if err := probeCluster(layer, seed, single); err != nil {
		return result{}, nil, fmt.Errorf("cluster probes: %w", err)
	}

	for _, name := range layerNames {
		if _, ok := layer[name]; !ok {
			return result{}, nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	m, err := metricsOf(layer)
	if err != nil {
		return result{}, nil, err
	}
	return result{Correct: failed == 0, Attempted: 3 * sp.opsPerRound(), Failed: failed, Metrics: m}, detail, nil
}

// sample calls f at least reps times and for at least 30 ms, and returns
// each call's time in milliseconds.
func sample(reps int, f func()) []float64 {
	var out []float64
	for start := time.Now(); len(out) < reps || time.Since(start) < 30*time.Millisecond; {
		t0 := time.Now()
		f()
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

func medianUS(reps int, f func()) float64 { return quantile(sample(reps, f), 0.5) * 1000 }
func medianMS(reps int, f func()) float64 { return quantile(sample(reps, f), 0.5) }

// durations returns, in milliseconds, every recorded span of one name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// probeCompute times the layers below a single public call of core —
// tensor, nn, gnn — at the shapes of the workload's largest model (the
// email replica at `scale`), and core, dyngraph, ingest, durable and
// metrics on the N=94 model the served workloads run.
func probeCompute(layer map[string]float64, seed int64, scale float64) error {
	t0 := time.Now()
	g, err := replica(scale, seed)
	if err != nil {
		return err
	}
	layer["datasets.replica_ms"] = ms(time.Since(t0))

	cfg := core.DefaultConfig(g.N, g.F)
	cfg.Seed = seed
	shapes := core.New(cfg) // untrained: only its module shapes are used
	var (
		gru *nn.GRUCell
		mlp *nn.MLP
		enc *gnn.BiFlowEncoder
	)
	for _, mod := range shapes.Modules() {
		switch v := mod.(type) {
		case *nn.GRUCell:
			gru = v
		case *nn.MLP:
			if mlp == nil {
				mlp = v
			}
		case *gnn.BiFlowEncoder:
			enc = v
		}
	}
	if gru == nil || mlp == nil || enc == nil {
		return fmt.Errorf("model modules no longer include a GRU cell, an MLP and a bi-flow encoder")
	}
	rng := rand.New(rand.NewSource(seed))
	d := gru.HiddenDim
	snap := g.At(0)

	// tensor: node-level and candidate-level GEMM, SpMM, activations, tape.
	a, w, out := tensor.Randn(g.N, d, 1, rng), tensor.Randn(d, d, 0.1, rng), tensor.New(g.N, d)
	layer["tensor.gemm_node_us"] = medianUS(50, func() { tensor.MatMulInto(out, a, w) })
	c := min(candidateCap, g.N)
	ca, cout := tensor.Randn(c, d, 1, rng), tensor.New(c, d)
	layer["tensor.gemm_cand_us"] = medianUS(50, func() { tensor.MatMulInto(cout, ca, w) })
	adj := snap.AdjCSR()
	layer["tensor.spmm_us"] = medianUS(50, func() { adj.MulDenseInto(out, a) })
	act := a.Clone()
	layer["tensor.act_us"] = medianUS(50, func() { tensor.VSigmoid(act.Data); tensor.VTanh(act.Data) })
	const chain = 3
	tape, bias := tensor.NewTape(), tensor.New(1, d)
	layer["tensor.tape_step_us"] = medianUS(20, func() {
		h, wn, bn := tape.Const(a), tape.Var(w), tape.Var(bias)
		for i := 0; i < chain; i++ {
			h = tape.Affine(h, wn, bn, tensor.ActTanh)
		}
		tape.Backward(tape.MeanAll(h))
		tape.Reset()
	}) / chain

	// nn and gnn: tape-free forwards at N rows, one optimizer step.
	x, h := tensor.Randn(g.N, gru.InDim, 1, rng), tensor.Randn(g.N, d, 1, rng)
	layer["nn.gru_forward_us"] = medianUS(20, func() { tensor.Put(gru.Forward(x, h)) })
	mx := tensor.Randn(g.N, mlp.Layers[0].In, 1, rng)
	layer["nn.mlp_forward_us"] = medianUS(20, func() { tensor.Put(mlp.Forward(mx)) })
	adam := nn.NewAdam(nn.CollectParams(shapes.Modules()...), cfg.LR)
	layer["nn.adam_step_us"] = medianUS(20, func() { adam.Step() })
	layer["gnn.biflow_forward_us"] = medianUS(10, func() { tensor.Put(enc.EncodeValue(snap)) })
	layer["dyngraph.adjcsr_us"] = medianUS(20, func() { snap.AdjCSR() })

	// core on the small model: epochs, decode steps, encode, forecast, checkpoint.
	gs, err := replica(smallScale, seed)
	if err != nil {
		return err
	}
	rec := newRecorder()
	small, _, err := trainModel(rec, 0, gs, seed, func(c *core.Config) { c.Epochs = smallEpochs })
	if err != nil {
		return err
	}
	layer["core.fit_epoch_ms"] = quantile(rec.durations("core.fit_epoch"), 0.5)
	large, tapePeak := small, small.TapePeakLiveBytes()
	if scale != smallScale {
		if large, _, err = largeModel(scale, seed); err != nil {
			return err
		}
		tapePeak = large.TapePeakLiveBytes()
	}
	layer["core.tape_peak_live_mb"] = float64(tapePeak) / (1 << 20)

	rec = newRecorder()
	for i := 0; i < 4; i++ {
		if _, _, err := generate(rec, 0, small, genSmallT, seed+int64(i), nil); err != nil {
			return err
		}
	}
	layer["core.decode_step_small_ms"] = quantile(rec.durations("core.decode_step"), 0.5)
	if large != small {
		rec = newRecorder()
		for i := 0; i < 2; i++ {
			if _, _, err := generate(rec, 0, large, genLargeT, seed+int64(i), nil); err != nil {
				return err
			}
		}
	}
	layer["core.decode_step_large_ms"] = quantile(rec.durations("core.decode_step"), 0.5)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snaps, edges, err := generate(nil, 0, small, genSmallT, seed, nil)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	layer["core.edges_per_snapshot"] = float64(edges) / float64(snaps)
	layer["core.allocs_per_snapshot"] = float64(m1.Mallocs-m0.Mallocs) / float64(snaps)

	st := small.NewForecastState()
	defer st.Release()
	var encodeMS []float64
	for _, s := range gs.Snapshots {
		t0 := time.Now()
		if err := small.EncodeSnapshot(st, s); err != nil {
			return err
		}
		encodeMS = append(encodeMS, ms(time.Since(t0)))
	}
	layer["core.encode_snapshot_ms"] = quantile(encodeMS, 0.5)
	var seq *dyngraph.Sequence
	layer["core.forecast_ms"] = medianMS(5, func() {
		seq, err = small.Forecast(context.Background(), st, core.GenOptions{T: forecastT, Seed: seed, Parallel: true})
	})
	if err != nil {
		return err
	}
	layer["core.save_load_ms"] = medianMS(5, func() {
		var buf bytes.Buffer
		if err = small.Save(&buf); err == nil {
			_, err = core.Load(&buf)
		}
	})
	if err != nil {
		return err
	}

	// dyngraph: the JSON a forecast reply carries.
	var encoded []byte
	layer["dyngraph.json_encode_ms"] = medianMS(10, func() { encoded, err = json.Marshal(seq) })
	if err != nil {
		return err
	}
	layer["dyngraph.json_bytes_per_op"] = float64(len(encoded))

	// ingest: one op body through the folding cursor, no model behind it.
	bodies := windowBodies(gs, gs.T())
	var foldMS []float64
	var folded int
	for rep := 0; rep < 8; rep++ {
		stream, err := ingest.NewStream(ingest.Options{N: gs.N, F: gs.F, Window: 1, CarryAttrs: true, Pooled: true})
		if err != nil {
			return err
		}
		emit := func(s *dyngraph.Snapshot) error { folded += s.NumEdges(); s.Recycle(); return nil }
		for _, b := range bodies {
			t0 := time.Now()
			if err := stream.Fold(bytes.NewReader(b), emit); err == nil {
				err = stream.Flush(emit)
			}
			if err != nil {
				return err
			}
			foldMS = append(foldMS, ms(time.Since(t0)))
		}
	}
	layer["ingest.fold_us"] = quantile(foldMS, 0.5) * 1000
	layer["ingest.edges_per_s"] = float64(folded) / (sum(foldMS) / 1000)

	if err := probeDurable(layer, bodies, st); err != nil {
		return err
	}

	// metrics: the quality guard. Table-1 structure and attribute scores of
	// the fixed-seed output against its replica; they must repeat exactly.
	gen, err := small.GenerateOpts(core.GenOptions{T: gs.T(), Seed: seed, Parallel: true})
	if err != nil {
		return err
	}
	t0 = time.Now()
	rep := metrics.CompareStructure(gs, gen)
	jsd := metrics.AttrJSD(gs, gen, 32)
	layer["metrics.compare_ms"] = ms(time.Since(t0))
	layer["metrics.degree_mmd"] = (rep.InDegMMD + rep.OutDegMMD) / 2
	layer["metrics.attr_jsd"] = jsd
	return nil
}

// probeDurable times the WAL and the atomic file write on the filesystem
// the served workloads' data directories live on, with their record sizes.
func probeDurable(layer map[string]float64, bodies [][]byte, st *core.ForecastState) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("out", "probe-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, err := durable.OpenWAL(durable.OS, dir, 1, 1)
	if err != nil {
		return err
	}
	const appends = 200
	var appendMS []float64
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		if _, err := wal.Append(bodies[i%len(bodies)]); err != nil {
			wal.Close()
			return err
		}
		appendMS = append(appendMS, ms(time.Since(t0)))
	}
	if err := wal.Close(); err != nil {
		return err
	}
	layer["durable.wal_append_us"] = quantile(appendMS, 0.5) * 1000
	layer["durable.wal_append_p95_us"] = quantile(appendMS, 0.95) * 1000
	t0 := time.Now()
	records := 0
	if _, _, err := durable.ReplayWAL(durable.OS, durable.WALPath(dir, 1), 0, func(uint64, []byte) error {
		records++
		return nil
	}); err != nil {
		return err
	}
	if records != appends {
		return fmt.Errorf("WAL replayed %d records of %d appended", records, appends)
	}
	layer["durable.replay_records_per_s"] = float64(records) / time.Since(t0).Seconds()
	state, err := core.EncodeForecastState(st)
	if err != nil {
		return err
	}
	layer["durable.write_atomic_ms"] = medianMS(20, func() {
		err = durable.WriteFileAtomic(durable.OS, filepath.Join(dir, "state"), state)
	})
	return err
}

// serve calls a handler in process, with a client trace id, and times it.
func serve(h http.Handler, method, target, ctype, traceID string, body []byte) (float64, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set(obs.Header, traceID)
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	return ms(time.Since(t0)), w
}

// tail is the highest percentile up to p95 that leaves ten samples beyond
// it; below twenty samples there is no such percentile and it is the median.
func tail(xs []float64) float64 {
	if len(xs) < 20 {
		return quantile(xs, 0.5)
	}
	return quantile(xs, min(0.95, 1-10/float64(len(xs))))
}

// probeServe measures the server layer on the single-node rig: handlers
// called in process (no transport), the same ops over loopback (transport
// is the difference), the program's own spans per stage, one 2-caller round
// traced by id, recovery of that round's sessions, and rounds with the
// tracer on against rounds with it off. It returns the round's CPU per op for the cluster
// probe to subtract.
func probeServe(layer map[string]float64, detail map[string]any, seed int64) (float64, error) {
	sp := specs["session_rw"]
	r, err := setupServe(sp, seed, rigOpts{ordinal: 100, tracer: bigRing}, 1)
	if err != nil {
		return 0, err
	}
	defer r.close()
	srv := r.members[0].srv

	// Handlers in process, 8 writes to 1 read as in the workload, then the
	// two generate endpoints the workloads do not call.
	const writes, every = 64, 8
	var ingestMS, forecastMS, generateMS, streamMS []float64
	var mix, streams []string
	fail := func(what string, w *httptest.ResponseRecorder) error {
		return fmt.Errorf("in-process %s: status %d: %.400s", what, w.Code, w.Body.Bytes())
	}
	for k := 0; k < writes; k++ {
		id := fmt.Sprintf("probe-ingest-%d", k)
		d, w := serve(srv, http.MethodPost, "/v1/ingest?session=probe-inproc", "text/csv", id, r.bodies[k])
		if w.Code != http.StatusOK {
			return 0, fail("ingest", w)
		}
		ingestMS, mix = append(ingestMS, d), append(mix, id)
		if (k+1)%every != 0 {
			continue
		}
		id = fmt.Sprintf("probe-forecast-%d", k)
		body := fmt.Sprintf(`{"session":"probe-inproc","t":%d,"seed":%d}`, forecastT, seed+int64(k))
		if d, w = serve(srv, http.MethodPost, "/v1/forecast", "application/json", id, []byte(body)); w.Code != http.StatusOK {
			return 0, fail("forecast", w)
		}
		forecastMS, mix = append(forecastMS, d), append(mix, id)
		body = fmt.Sprintf(`{"t":%d,"seed":%d}`, forecastT, seed+int64(k))
		id = fmt.Sprintf("probe-generate-%d", k)
		if d, w = serve(srv, http.MethodPost, "/v1/generate", "application/json", id, []byte(body)); w.Code != http.StatusOK {
			return 0, fail("generate", w)
		}
		generateMS = append(generateMS, d)
		id = fmt.Sprintf("probe-stream-%d", k)
		if d, w = serve(srv, http.MethodPost, "/v1/generate/stream", "application/json", id, []byte(body)); w.Code != http.StatusOK {
			return 0, fail("generate/stream", w)
		}
		streamMS, streams = append(streamMS, d), append(streams, id)
	}
	layer["server.handler_ingest_ms"] = mean(ingestMS)
	layer["server.handler_forecast_ms"] = mean(forecastMS)
	layer["server.handler_generate_ms"] = mean(generateMS)
	layer["server.handler_stream_ms"] = mean(streamMS)

	// The program's own spans for those calls, self time per stage, as a
	// mean per op of the 8:1 mix. With unattributed they add up to the mean
	// handler time of the mix; detail carries the check.
	stages := map[string]float64{}
	for _, id := range mix {
		for _, v := range srv.Tracer().ByID(id) {
			stageSelf(v, stages)
		}
	}
	perOp := func(name string) float64 { return stages[name] / float64(len(mix)) }
	layer["server.stage.admit_us"] = perOp("admit")
	layer["server.stage.quota_us"] = perOp("quota")
	layer["server.stage.ingest_fold_us"] = perOp("ingest.fold")
	layer["server.stage.encode_us"] = perOp("encode")
	layer["server.stage.wal_append_us"] = perOp("wal.append")
	layer["server.stage.decode_ms"] = perOp("decode") / 1000
	layer["server.stage.unattributed_us"] = perOp("unattributed")
	var stageSum float64
	for _, v := range stages {
		stageSum += v
	}
	detail["server.stage_sum_over_handler"] = stageSum / (1000 * (sum(ingestMS) + sum(forecastMS)))
	flush := map[string]float64{}
	for _, id := range streams {
		for _, v := range srv.Tracer().ByID(id) {
			stageSelf(v, flush)
		}
	}
	layer["server.stage.stream_flush_us"] = flush["stream.flush"] / float64(len(streams))

	// The same ops from one caller over loopback: what transport adds.
	var viaIngest, viaForecast []float64
	for k := 0; k < writes; k++ {
		t0 := time.Now()
		if err := r.ingest(nil, 0, 0, r.members[0].url, "probe-http", "", k); err != nil {
			return 0, err
		}
		viaIngest = append(viaIngest, ms(time.Since(t0)))
		if (k+1)%every != 0 {
			continue
		}
		t0 = time.Now()
		if _, err := r.forecast(nil, 0, 0, r.members[0].url, "probe-http", "", seed+int64(k)); err != nil {
			return 0, err
		}
		viaForecast = append(viaForecast, ms(time.Since(t0)))
	}
	layer["server.transport_ingest_ms"] = mean(viaIngest) - mean(ingestMS)
	layer["server.transport_forecast_ms"] = mean(viaForecast) - mean(forecastMS)
	for _, s := range []string{"probe-inproc", "probe-http"} {
		if err := r.drop(s); err != nil {
			return 0, err
		}
	}

	// One round of the workload, traced by id: tails, shedding, span counts.
	sched := sp.schedule(seed)
	rec := newRecorder()
	runtime.GC()
	on := runRound(r, sched, sp.segment, 0, rec)
	layer["server.primary_p95_ms"] = tail(on.byKind(sched, primary))
	layer["server.secondary_p95_ms"] = tail(on.byKind(sched, secondary))
	var spans, dropped, shed int
	for c := range sched {
		for i := range sched[c] {
			for _, v := range srv.Tracer().ByID(opID(0, c, i)) {
				spans += len(v.Spans)
				dropped += v.SpansDropped
				if v.Status == http.StatusTooManyRequests || v.Status == http.StatusServiceUnavailable {
					shed++
				}
			}
		}
	}
	layer["obs.spans_per_op"] = float64(spans) / float64(sp.opsPerRound())
	layer["obs.spans_dropped"] = float64(dropped)
	layer["server.shed_share"] = float64(shed) / float64(sp.opsPerRound())

	// Recovery of that round's sessions by a second server on the same
	// data directory, as after a kill.
	cold := server.New(server.Config{DataDir: filepath.Join(r.dataDir, r.members[0].name), Logger: quiet})
	if err := cold.Register(modelName, r.model, nil); err != nil {
		cold.Close()
		return 0, err
	}
	t0 := time.Now()
	n, err := cold.RecoverSessions()
	layer["server.recover_ms"] = ms(time.Since(t0))
	cold.Close()
	if err != nil || n != sp.callers*sp.sessions {
		return 0, fmt.Errorf("recovered %d sessions of %d: %v", n, sp.callers*sp.sessions, err)
	}
	if err := r.endRound(0); err != nil {
		return 0, err
	}

	// Tracing on against tracing off: the same round, three times each,
	// alternating between this rig and one built with obs.Disabled(), so
	// that drift lands on both. The answer is a percent or two and a
	// round repeats within about five, so read it over several runs.
	off, err := setupServe(sp, seed, rigOpts{ordinal: 101, tracer: obs.Disabled}, 1)
	if err != nil {
		return 0, err
	}
	defer off.close()
	var with, without []float64
	for round := 1; round <= 3; round++ {
		for _, side := range []struct {
			rig *serveRig
			out *[]float64
		}{{r, &with}, {off, &without}} {
			runtime.GC()
			rr := runRound(side.rig, sched, sp.segment, round, nil)
			if on.failed+rr.failed > 0 {
				return 0, fmt.Errorf("probe rounds failed ops: %v %v", on.errs, rr.errs)
			}
			*side.out = append(*side.out, rr.opsPerS(sp))
			if err := side.rig.endRound(round); err != nil {
				return 0, err
			}
		}
	}
	layer["obs.trace_overhead_pct"] = (quantile(without, 0.5)/quantile(with, 0.5) - 1) * 100
	return ms(on.cpu) / float64(sp.opsPerRound()), nil
}

// probeCluster runs one round of the schedule through the 3-node rig,
// traced by id, and splits it by whether an op entered at its primary.
func probeCluster(layer map[string]float64, seed int64, singleCPUPerOp float64) error {
	sp := specs["cluster_rw"]
	r, err := setupServe(sp, seed, rigOpts{ordinal: 102, tracer: bigRing}, 3)
	if err != nil {
		return err
	}
	defer r.close()
	name := r.sessionName(0, 0, 0)
	layer["cluster.ring_owners_ns"] = medianUS(1000, func() { r.ring.Owners(name, 2, nil) }) * 1000

	sched := sp.schedule(seed)
	rec := newRecorder()
	runtime.GC()
	rr := runRound(r, sched, sp.segment, 0, rec)
	if rr.failed > 0 {
		return fmt.Errorf("cluster round failed %d ops: %v", rr.failed, rr.errs)
	}
	var local, proxied []float64
	var proxyUS, replicateUS float64
	for c := range sched {
		for i, o := range sched[c] {
			views := map[string][]obs.TraceView{} // node URL → its traces of this op
			for _, mb := range r.members {
				views[mb.url] = mb.srv.Tracer().ByID(opID(0, c, i))
			}
			proxyUS += hopSelf(views, "proxy")
			replicateUS += hopSelf(views, "replicate")
			if o.kind != primary {
				continue
			}
			if r.local(0, c, i, o) {
				local = append(local, ms(rr.lat[c][i]))
			} else {
				proxied = append(proxied, ms(rr.lat[c][i]))
			}
		}
	}
	ops := float64(sp.opsPerRound())
	layer["cluster.local_ingest_ms"] = quantile(local, 0.5)
	layer["cluster.proxied_ingest_ms"] = quantile(proxied, 0.5)
	layer["cluster.proxy_hop_ms"] = quantile(proxied, 0.5) - quantile(local, 0.5)
	layer["cluster.stage.proxy_us"] = proxyUS / ops
	layer["cluster.stage.replicate_us"] = replicateUS / ops
	var replicated, acked, retries int64
	var queue int
	for _, mb := range r.members {
		st := mb.node.Stats()
		replicated += st.AckReplicated
		acked += st.AckReplicated + st.AckLocal
		retries += st.ProxyRetries
		for _, rs := range st.Replication {
			queue = max(queue, rs.QueueLen)
		}
	}
	layer["cluster.acks_replicated_share"] = float64(replicated) / float64(max(acked, 1))
	layer["cluster.retries_per_op"] = float64(retries) / ops
	layer["cluster.queue_len_max"] = float64(queue)
	layer["cluster.cpu_ms_per_ack_over_single"] = ms(rr.cpu)/ops - singleCPUPerOp
	return r.endRound(0)
}

// hopSelf is the self time, in microseconds, of one op's cross-node spans
// of one name ("proxy", "replicate"): each span's duration minus the wall
// time of the request it caused on the peer it names. The peer recorded
// that request as a trace of its own under the same id; it is the longest
// of the peer's traces that began inside the span.
func hopSelf(views map[string][]obs.TraceView, name string) float64 {
	var self float64
	for _, vs := range views {
		for _, v := range vs {
			for _, sp := range v.Spans {
				peer, _ := sp.Tags["peer"].(string)
				if sp.Name != name {
					continue
				}
				from := v.Start.Add(time.Duration(sp.StartUS) * time.Microsecond)
				to := from.Add(time.Duration(sp.DurUS) * time.Microsecond)
				var caused int64
				for _, pv := range views[peer] {
					if !pv.Start.Before(from) && pv.Start.Before(to) && pv.WallUS <= sp.DurUS {
						caused = max(caused, pv.WallUS)
					}
				}
				self += float64(sp.DurUS - caused)
			}
		}
	}
	return self
}

// collectObs reads the program's own spans of every recorded op back by
// trace id, from every node's tracer, and hangs them under the op's
// round trip. Views of several nodes overlap in time under one op.
func (r *serveRig) collectObs(rec *recorder) {
	trips := append([]span(nil), rec.spans...)
	for _, s := range trips {
		if s.Name != "http.roundtrip" {
			continue
		}
		for _, mb := range r.members {
			for _, v := range mb.srv.Tracer().ByID(s.Op) {
				rec.addObs(s.ID, mb.name, v)
			}
		}
	}
}
