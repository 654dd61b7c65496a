package server

import (
	"net/http"
	"runtime"
	"sort"
	"time"

	"vrdag/internal/obs"
	"vrdag/internal/tensor"
)

// Prometheus text exposition at GET /metrics, rendered with the
// zero-dependency writer in internal/obs. It is the server's one stats
// surface and reads counters only — a scrape takes no admission slot and
// no CPU slot. Families carry stable, sorted label values, so two
// scrapes of a quiesced server are byte-identical and an
// exposition-format linter (internal/obs.Lint, cmd/vrdag-promlint) can
// gate the output in CI. The cluster layer appends its families through
// SetPromHook.

func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	var e obs.Expo
	s.renderProm(&e)
	if f, ok := s.promHook.Load().(func(*obs.Expo)); ok && f != nil {
		f(&e)
	}
	w.Header().Set("Content-Type", obs.ContentType)
	w.Write(e.Bytes())
}

// renderProm writes every local family. Endpoint and tenant label values
// are sorted so the exposition is deterministic under a quiesced server.
func (s *Server) renderProm(e *obs.Expo) {
	up := int64(1)
	if s.draining() {
		up = 0
	}
	e.Family("vrdag_up", "Whether the server is accepting work (0 while draining).", "gauge")
	e.Int("vrdag_up", nil, up)
	e.Family("vrdag_uptime_seconds", "Seconds since the server started.", "gauge")
	e.Sample("vrdag_uptime_seconds", nil, time.Since(s.started).Seconds())

	paths := make([]string, 0, len(s.endpointStats))
	for p := range s.endpointStats {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	e.Family("vrdag_http_requests_total", "Requests served, by endpoint path.", "counter")
	for _, p := range paths {
		e.Int("vrdag_http_requests_total", []obs.L{{K: "path", V: p}}, s.endpointStats[p].requests.Load())
	}
	e.Family("vrdag_http_errors_total", "Responses with status >= 400, by endpoint path.", "counter")
	for _, p := range paths {
		e.Int("vrdag_http_errors_total", []obs.L{{K: "path", V: p}}, s.endpointStats[p].errors.Load())
	}
	e.Family("vrdag_http_shed_total", "Responses shed with 429 or 503, by endpoint path.", "counter")
	for _, p := range paths {
		e.Int("vrdag_http_shed_total", []obs.L{{K: "path", V: p}}, s.endpointStats[p].shed.Load())
	}
	e.Family("vrdag_http_request_duration_ms", "Request latency in milliseconds, by endpoint path.", "histogram")
	for _, p := range paths {
		st := s.endpointStats[p]
		e.Histogram("vrdag_http_request_duration_ms", []obs.L{{K: "path", V: p}},
			latencyBucketsMS[:], loadBuckets(st.buckets[:]), float64(st.totalUS.Load())/1000)
	}

	if tenants := s.tenantStats(); len(tenants) > 0 {
		names := make([]string, 0, len(tenants))
		for t := range tenants {
			names = append(names, t)
		}
		sort.Strings(names)
		e.Family("vrdag_tenant_admitted_total", "Requests admitted past the tenant quota, by tenant.", "counter")
		for _, t := range names {
			e.Int("vrdag_tenant_admitted_total", []obs.L{{K: "tenant", V: t}}, tenants[t].Admitted)
		}
		e.Family("vrdag_tenant_throttled_total", "Requests shed by the tenant quota, by tenant.", "counter")
		for _, t := range names {
			e.Int("vrdag_tenant_throttled_total", []obs.L{{K: "tenant", V: t}}, tenants[t].Throttled)
		}
		e.Family("vrdag_tenant_tokens", "Token-bucket level at scrape time, by tenant.", "gauge")
		for _, t := range names {
			e.Sample("vrdag_tenant_tokens", []obs.L{{K: "tenant", V: t}}, tenants[t].Tokens)
		}
	}

	if s.durable() {
		d := s.durabilityStats()
		degraded := int64(0)
		if d.Degraded {
			degraded = 1
		}
		e.Family("vrdag_durability_degraded", "Whether persistence has latched read-only mode.", "gauge")
		e.Int("vrdag_durability_degraded", nil, degraded)
		e.Family("vrdag_wal_appends_total", "Ingest requests appended to a session WAL.", "counter")
		e.Int("vrdag_wal_appends_total", nil, d.WALAppends)
		e.Family("vrdag_session_snapshots_total", "Session WAL compactions into a full snapshot.", "counter")
		e.Int("vrdag_session_snapshots_total", nil, d.Snapshots)
		e.Family("vrdag_session_recoveries_total", "Sessions rebuilt from disk at startup.", "counter")
		e.Int("vrdag_session_recoveries_total", nil, d.Recoveries)
		e.Family("vrdag_wal_torn_tails_total", "Torn WAL tails truncated during replay.", "counter")
		e.Int("vrdag_wal_torn_tails_total", nil, d.TornTails)
		e.Family("vrdag_session_spills_total", "Idle sessions spilled out of RAM to disk.", "counter")
		e.Int("vrdag_session_spills_total", nil, d.Spills)
		e.Family("vrdag_session_reloads_total", "Spilled sessions reloaded on access.", "counter")
		e.Int("vrdag_session_reloads_total", nil, d.Reloads)
		e.Family("vrdag_sessions_resident", "Forecast sessions currently decoded in RAM.", "gauge")
		e.Int("vrdag_sessions_resident", nil, int64(d.ResidentSessions))
		e.Family("vrdag_sessions_spilled", "Forecast sessions currently on disk only.", "gauge")
		e.Int("vrdag_sessions_spilled", nil, int64(d.SpilledSessions))
		e.Family("vrdag_fsync_total", "WAL fsyncs performed.", "counter")
		e.Int("vrdag_fsync_total", nil, d.FsyncCount)
		e.Family("vrdag_fsync_duration_ms", "WAL fsync latency in milliseconds.", "histogram")
		e.Histogram("vrdag_fsync_duration_ms", nil, fsyncBucketsMS[:],
			loadBuckets(s.dur.fsyncBuckets[:]), float64(s.dur.fsyncNS.Load())/1e6)
	}

	ts := s.tracer.Stats()
	enabled := int64(0)
	if ts.Enabled {
		enabled = 1
	}
	e.Family("vrdag_tracing_enabled", "Whether request tracing is recording (0 = disabled, no-op path).", "gauge")
	e.Int("vrdag_tracing_enabled", nil, enabled)
	e.Family("vrdag_traces_started_total", "Request traces started.", "counter")
	e.Int("vrdag_traces_started_total", nil, ts.Started)
	e.Family("vrdag_traces_finished_total", "Request traces finished and published to the ring.", "counter")
	e.Int("vrdag_traces_finished_total", nil, ts.Finished)
	e.Family("vrdag_traces_slow_total", "Finished traces over the slow-trace threshold.", "counter")
	e.Int("vrdag_traces_slow_total", nil, ts.Slow)
	e.Family("vrdag_trace_spans_dropped_total", "Spans dropped by the per-trace cap.", "counter")
	e.Int("vrdag_trace_spans_dropped_total", nil, ts.SpansDropped)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Family("vrdag_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	e.Int("vrdag_heap_alloc_bytes", nil, int64(ms.HeapAlloc))
	e.Family("vrdag_heap_allocated_bytes_total", "Cumulative bytes allocated for heap objects, freed or not.", "counter")
	e.Int("vrdag_heap_allocated_bytes_total", nil, int64(ms.TotalAlloc))
	e.Family("vrdag_goroutines", "Live goroutines.", "gauge")
	e.Int("vrdag_goroutines", nil, int64(runtime.NumGoroutine()))
	e.Family("vrdag_gc_pause_total_ms", "Cumulative GC stop-the-world pause, in milliseconds.", "counter")
	e.Sample("vrdag_gc_pause_total_ms", nil, float64(ms.PauseTotalNs)/1e6)

	ps := tensor.ReadPoolStats()
	backend := []obs.L{{K: "backend", V: tensor.ActiveBackend()}}
	e.Family("vrdag_compute_backend", "Active SIMD compute backend (value is always 1; the backend is the label).", "gauge")
	e.Int("vrdag_compute_backend", backend, 1)
	e.Family("vrdag_tensor_pool_gets_total", "Tensor arena buffer requests.", "counter")
	e.Int("vrdag_tensor_pool_gets_total", nil, ps.Gets)
	e.Family("vrdag_tensor_pool_hits_total", "Tensor arena requests served from a free list.", "counter")
	e.Int("vrdag_tensor_pool_hits_total", nil, ps.Hits)
	e.Family("vrdag_tensor_pool_puts_total", "Tensor arena buffer returns.", "counter")
	e.Int("vrdag_tensor_pool_puts_total", nil, ps.Puts)
	e.Family("vrdag_tensor_pool_retained_bytes", "Bytes retained on tensor arena free lists, resident and released.", "gauge")
	e.Int("vrdag_tensor_pool_retained_bytes", nil, ps.RetainedBytes)
	e.Family("vrdag_tensor_pool_released_bytes", "Bytes on tensor arena free lists whose pages went back to the OS.", "gauge")
	e.Int("vrdag_tensor_pool_released_bytes", nil, ps.ReleasedBytes)
}
