// Package server exposes trained VRDAG models over HTTP as a generation
// service: POST /v1/generate samples a snapshot sequence in one response,
// POST /v1/generate/stream emits snapshots as NDJSON lines the moment
// they are decoded (O(1) resident snapshots per request),
// POST /v1/ingest folds an observed temporal edge stream into a
// named forecast session, POST /v1/forecast and /v1/forecast/stream
// generate futures conditioned on a session's observed history,
// GET /metrics is the stats surface (Prometheus text, served from
// counters alone), GET /v1/trace serves request traces, and
// GET /v1/models and GET /healthz report registry and liveness state.
//
// Models are read-only after registration and every generation request
// samples through its own rand.Source, so request handling needs no
// per-model locking. Load is shaped at one gate: a bounded admission
// queue (configurable depth and wait timeout, 429 on overflow) bounds how
// many generation requests wait, and an admitted request then runs its
// CPU-bound decoding on its own handler goroutine once it holds one of
// Workers CPU slots (default GOMAXPROCS). Request contexts thread through
// generation, so a client disconnect aborts its sequence mid-decode and
// returns the request's buffers to the tensor arena.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vrdag/internal/core"
	"vrdag/internal/durable"
	"vrdag/internal/dyngraph"
	"vrdag/internal/obs"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	Workers int // requests decoding at once, one CPU slot each (default GOMAXPROCS)
	MaxT    int // largest accepted horizon per request (default 512)

	// AdmitDepth bounds how many generation requests may be admitted
	// (in-flight plus waiting for a CPU slot) at once; default
	// Workers + max(4×Workers, 16).
	AdmitDepth int
	// AdmitWait bounds how long a request waits for an admission slot
	// before it is shed with 429 (default 2s).
	AdmitWait time.Duration

	// SessionTTL evicts forecast sessions idle longer than this (default
	// 15m); every ingest or forecast touch resets the clock.
	SessionTTL time.Duration
	// MaxSessions bounds concurrent forecast sessions (default 64). At
	// capacity the longest-idle session is evicted for a new one only if
	// it has expired; otherwise creation is rejected with 429.
	MaxSessions int
	// MaxIngestBytes bounds one /v1/ingest request body (default 64 MiB,
	// counted after transport decompression is NOT applied — the limit is
	// on the wire bytes, gzip included).
	MaxIngestBytes int64

	// DataDir, when non-empty, makes forecast sessions durable: every
	// ingest is WAL-appended and fsynced under <DataDir>/sessions/<name>
	// before it is folded, sessions spill to disk instead of dying on
	// TTL, and RecoverSessions rebuilds them after a restart with
	// forecasts byte-identical to the pre-crash state.
	DataDir string
	// FS is the filesystem durable state goes through (default the real
	// one); tests inject a durable.FaultFS to drive the crash matrix.
	FS durable.FS
	// MaxResident bounds how many durable sessions stay decoded in RAM
	// (default MaxSessions); the sweeper spills the longest-idle ones
	// beyond the cap, and they reload lazily on next use.
	MaxResident int
	// SweepInterval is the background session sweeper period (default
	// 1m; negative disables the background goroutine — full sweeps then
	// only happen when a session is created or reloaded from spill, and
	// each request still applies the TTL to its own session).
	SweepInterval time.Duration

	// QuotaRate, when > 0, enables per-tenant token-bucket quotas on the
	// admission queue: each tenant (X-Vrdag-Tenant header) refills at
	// QuotaRate requests/sec up to a burst of max(1, ceil(QuotaRate)), and
	// an empty bucket sheds with 429 + jittered Retry-After (see
	// quotas.go).
	QuotaRate float64

	// RequestTimeout, when > 0, bounds every request's handler context:
	// generation past the deadline aborts and returns its buffers. Set it
	// above the longest expected stream — it applies to streaming
	// responses too, which is the point (a wedged consumer cannot pin a
	// worker forever).
	RequestTimeout time.Duration

	// Logger receives structured request logs (default: text handler on
	// stderr). Every request-path line carries method, path, status,
	// duration, and — when present — trace ID, tenant, session, and peer.
	Logger *slog.Logger

	// Tracer records request traces (see internal/obs). Nil selects a
	// tracer that traces every request into a 256-trace ring, wired to
	// Logger; obs.Disabled() serves untraced.
	Tracer *obs.Tracer
}

// Server serves the generation, ingest and forecast routes. Create with
// New, register at least one model, then use it as an http.Handler.
type Server struct {
	cfg    Config
	logger *slog.Logger
	tracer *obs.Tracer
	mux    *http.ServeMux

	admitCh chan struct{} // admission slots; buffered to AdmitDepth
	slots   chan struct{} // CPU slots; buffered to Workers

	drain     chan struct{} // closed by BeginDrain
	drainOnce sync.Once
	closed    chan struct{} // closed by Close
	closeOnce sync.Once

	started       time.Time
	endpointStats map[string]*endpointStats

	mu     sync.RWMutex
	models map[string]*modelEntry

	sessMu   sync.Mutex
	sessions map[string]*forecastSession

	fsys    durable.FS
	dur     *durStats
	sweepWG sync.WaitGroup

	// degraded latches read-only mode after a persistence write failure:
	// ingest sheds with 503, forecasts keep serving (see durability.go).
	degraded    atomic.Bool
	degradedMu  sync.Mutex
	degradedWhy string

	seedMu sync.Mutex
	seeder *rand.Rand

	quotaMu sync.Mutex
	quotas  map[string]*tenantBucket

	// healthHook/promHook let an embedding layer (internal/cluster)
	// decorate /healthz and /metrics with cluster state without the
	// import cycle a reverse dependency would create. Each holds nil or
	// a func; set once at wiring time via SetHealthHook/SetPromHook.
	healthHook atomic.Value // func(*HealthResponse)
	promHook   atomic.Value // func(*obs.Expo)
}

type modelEntry struct {
	name      string
	model     *core.Model
	generated atomic.Int64
}

// New constructs a Server with no registered models.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxT <= 0 {
		cfg.MaxT = 512
	}
	if cfg.AdmitDepth <= 0 {
		cfg.AdmitDepth = cfg.Workers + max(4*cfg.Workers, 16)
	}
	if cfg.AdmitWait <= 0 {
		cfg.AdmitWait = 2 * time.Second
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 15 * time.Minute
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxIngestBytes <= 0 {
		cfg.MaxIngestBytes = 64 << 20
	}
	if cfg.FS == nil {
		cfg.FS = durable.OS
	}
	if cfg.MaxResident <= 0 {
		cfg.MaxResident = cfg.MaxSessions
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.New(obs.Config{Logger: cfg.Logger})
	}
	s := &Server{
		cfg:      cfg,
		logger:   cfg.Logger,
		tracer:   cfg.Tracer,
		admitCh:  make(chan struct{}, cfg.AdmitDepth),
		slots:    make(chan struct{}, cfg.Workers),
		drain:    make(chan struct{}),
		closed:   make(chan struct{}),
		started:  time.Now(),
		models:   make(map[string]*modelEntry),
		sessions: make(map[string]*forecastSession),
		fsys:     cfg.FS,
		dur:      &durStats{},
		seeder:   rand.New(rand.NewSource(time.Now().UnixNano())),
		quotas:   make(map[string]*tenantBucket),
	}
	s.mux = http.NewServeMux()
	routes := map[string]http.HandlerFunc{
		"/v1/generate":        s.handleGenerate,
		"/v1/generate/stream": s.handleGenerateStream,
		"/v1/ingest":          s.handleIngest,
		"/v1/forecast":        s.handleForecast,
		"/v1/forecast/stream": s.handleForecastStream,
		"/v1/models":          s.handleModels,
		"/v1/trace":           s.handleTrace,
		"/metrics":            s.handleProm,
		"/healthz":            s.handleHealthz,
	}
	s.endpointStats = make(map[string]*endpointStats, len(routes)+1)
	for path, h := range routes {
		s.mux.HandleFunc(path, h)
		s.endpointStats[path] = &endpointStats{}
	}
	s.endpointStats["other"] = &endpointStats{}
	if s.cfg.SweepInterval > 0 {
		s.sweepWG.Add(1)
		go s.sweepLoop()
	}
	return s
}

// Register adds a trained model under name. The model must not be mutated
// (trained, refitted) after registration: handlers rely on it being
// read-only. The third argument is unused; it is kept for the bench/
// module's two call sites until ROADMAP item 8(g)'s bench-only change
// drops it.
func (s *Server) Register(name string, m *core.Model, _ *dyngraph.Sequence) error {
	if name == "" {
		return fmt.Errorf("server: model name must be non-empty")
	}
	if m == nil {
		return fmt.Errorf("server: model %q is nil", name)
	}
	if !m.Trained() {
		return fmt.Errorf("server: model %q is untrained", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[name]; dup {
		return fmt.Errorf("server: model %q already registered", name)
	}
	s.models[name] = &modelEntry{name: name, model: m}
	return nil
}

// BeginDrain moves the server into draining mode: new generation requests
// are rejected with 503 and in-flight streaming responses finish the
// snapshot they are on, append a truncation trailer, and end — so an
// http.Server.Shutdown deadline is met without cutting connections
// mid-line. It then stops the background session sweeper and, in durable
// mode, compacts every dirty session to its snapshot — in that order, so
// a sweep can never spill or mutate a session the flush is writing out.
// Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		close(s.drain)
		s.sweepWG.Wait()
		if s.durable() {
			s.flushDirtySessions()
		}
	})
}

func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// Close waits out the requests holding a CPU slot, answers 503 to those
// still waiting for one, and releases every forecast session's pooled
// state; once it returns no generation, ingest or forecast work runs. In
// durable mode BeginDrain has already flushed each session to its
// snapshot, and anything an in-flight ingest appended after that flush
// is still safe in its WAL — releasing here never loses durable state.
// Idempotent.
func (s *Server) Close() {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		close(s.closed)
		for range cap(s.slots) {
			s.slots <- struct{}{} // held for good: nothing runs after Close
		}
	})
	s.releaseAllSessions()
}

// SetHealthHook installs a decorator run on every /healthz response
// before it is written; internal/cluster uses it to attach peer state and
// to surface a cluster drain. Call once, at wiring time.
func (s *Server) SetHealthHook(f func(*HealthResponse)) { s.healthHook.Store(f) }

// SetPromHook installs a renderer appending extra families to the
// Prometheus /metrics exposition (internal/cluster attaches its
// replication/routing gauges through it). Call once, at wiring time.
func (s *Server) SetPromHook(f func(*obs.Expo)) { s.promHook.Store(f) }

// Tracer exposes the server's tracer so an embedding layer (the cluster
// node, the bench harness) shares one trace ring with the local server.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// MaxIngestBytes is the bound on one /v1/ingest body (Config.MaxIngestBytes
// after defaults); the cluster node spools routed bodies up to it.
func (s *Server) MaxIngestBytes() int64 { return s.cfg.MaxIngestBytes }

// TraceableRequest reports whether a request should get a trace of its
// own. Probe and scrape endpoints are excluded — a /healthz every few
// hundred milliseconds per peer would wash every real request out of
// the completed-trace ring.
func TraceableRequest(r *http.Request) bool {
	switch r.URL.Path {
	case "/healthz", "/metrics", "/v1/trace":
		return false
	}
	return true
}

// ServeHTTP implements http.Handler with request tracing, structured
// logging, and per-endpoint accounting. If the embedding cluster node
// already started a trace for this request, that trace is reused (and
// its owner finishes it); otherwise the server roots one here, honoring
// a client-supplied X-Vrdag-Trace ID, and returns the ID to the client.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	tr := obs.FromContext(r.Context())
	owned := false
	if tr == nil && TraceableRequest(r) {
		var ctx context.Context
		ctx, tr = s.tracer.StartTrace(r.Context(), r.Method+" "+r.URL.Path, r.Header.Get(obs.Header))
		if tr != nil {
			owned = true
			r = r.WithContext(ctx)
		}
	}
	if tr != nil {
		w.Header().Set(obs.Header, tr.ID)
	}
	lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
	if owned {
		lw.tr = tr
	}
	s.mux.ServeHTTP(lw, r)
	elapsed := time.Since(start)
	s.statsFor(r.URL.Path).observe(lw.status, elapsed)
	if owned {
		tr.Finish(lw.status)
	}
	s.logRequest(r, tr, lw.status, elapsed)
}

// logRequest emits the structured per-request log line with the
// correlation fields every request-path line carries.
func (s *Server) logRequest(r *http.Request, tr *obs.Trace, status int, elapsed time.Duration) {
	attrs := make([]slog.Attr, 0, 8)
	attrs = append(attrs,
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("dur", elapsed.Round(time.Microsecond)),
	)
	if tr != nil {
		attrs = append(attrs, slog.String("trace", tr.ID))
	}
	if tenant := r.Header.Get(HeaderTenant); tenant != "" {
		attrs = append(attrs, slog.String("tenant", tenant))
	}
	if sess := r.URL.Query().Get("session"); sess != "" {
		attrs = append(attrs, slog.String("session", sess))
	}
	if peer := r.Header.Get(HeaderForwarded); peer != "" {
		attrs = append(attrs, slog.String("peer", peer))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

type loggingWriter struct {
	http.ResponseWriter
	status int
	tr     *obs.Trace // the trace this request owns, whose wall ends at the last write; else nil
}

func (w *loggingWriter) Write(b []byte) (int, error) {
	w.tr.Wrote()
	return w.ResponseWriter.Write(b)
}

func (w *loggingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the NDJSON streaming endpoint
// keeps its per-line backpressure through the logging wrapper.
func (w *loggingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// lookup resolves a model by name; an empty name resolves iff exactly one
// model is registered.
func (s *Server) lookup(name string) (*modelEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.models) == 1 {
			for _, e := range s.models {
				return e, nil
			}
		}
		return nil, fmt.Errorf("model name required (%d models registered)", len(s.models))
	}
	e, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return e, nil
}

func (s *Server) drawSeed() int64 {
	s.seedMu.Lock()
	defer s.seedMu.Unlock()
	return s.seeder.Int63()
}

// encodeBufs recycles response-encoding buffers across requests: generated
// sequences serialise to megabytes of JSON, and encoding into a pooled
// buffer before the single Write both reuses that memory and keeps
// malformed responses (non-finite floats) from escaping half-written.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledEncodeBuf bounds the buffers worth recycling; one-off giant
// responses go back to the GC instead of pinning their capacity.
const maxPooledEncodeBuf = 8 << 20

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	s.send(w, status, buf, encodeJSON(buf, v))
}

// writeSequenceReply writes a 200 reply whose last member is "sequence":
// envelope is the reply struct with a nil Sequence, so encoding/json
// writes its few members and ends on `"sequence":null}`; the null is
// replaced by seq's own encoding, appended into the same buffer. The
// megabytes of sequence thus never pass through encoding/json, which
// would re-scan them as a Marshaler's output. The json.encode span covers
// both halves.
func (s *Server) writeSequenceReply(w http.ResponseWriter, r *http.Request, envelope any, seq *dyngraph.Sequence) {
	sp := obs.Start(r.Context(), "json.encode")
	buf := encodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	const null = "null}\n"
	err := encodeJSON(buf, envelope)
	if err == nil && !bytes.HasSuffix(buf.Bytes(), []byte(`"sequence":`+null)) {
		err = errors.New("server: reply envelope does not end in a nil sequence")
	}
	if err == nil {
		buf.Truncate(buf.Len() - len(null))
		var b []byte
		if b, err = seq.AppendJSON(buf.AvailableBuffer()); err == nil {
			buf.Write(append(b, "}\n"...))
		}
	}
	sp.SetInt("bytes", int64(buf.Len())).SetErr(err).End()
	s.send(w, http.StatusOK, buf, err)
}

// encodeJSON writes v and a newline to buf as every JSON reply is written:
// HTML characters unescaped.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// send writes buf as the reply with the given status, or, when encoding
// it failed, a 500 that says so: a reply is never sent half-encoded. It
// returns buf to the pool.
func (s *Server) send(w http.ResponseWriter, status int, buf *bytes.Buffer, encErr error) {
	w.Header().Set("Content-Type", "application/json")
	if encErr != nil {
		encodeBufs.Put(buf)
		s.logger.Error("encode response", "err", encErr)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":"response encoding failed"}`+"\n")
		return
	}
	w.WriteHeader(status)
	if _, err := buf.WriteTo(w); err != nil {
		// The client hung up; a log line is the only trace left.
		s.logger.Error("write response", "err", err)
	}
	if buf.Cap() <= maxPooledEncodeBuf {
		encodeBufs.Put(buf)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// admit reserves a slot in the bounded admission queue in front of the
// CPU slots, waiting up to AdmitWait for one to free. It reports false
// after writing the appropriate rejection (429 on overflow, 503 while
// draining, nothing when the client is already gone); on success the
// returned release must be called once the request's generation work is
// finished.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	sp := obs.Start(r.Context(), "admit")
	if s.draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server draining")
		sp.SetStr("outcome", "draining").End()
		return nil, false
	}
	if !s.checkQuota(w, r) {
		sp.SetStr("outcome", "quota").End()
		return nil, false
	}
	release = func() { <-s.admitCh }
	select {
	case s.admitCh <- struct{}{}:
		sp.SetStr("outcome", "ok").End()
		return release, true
	default:
	}
	timer := time.NewTimer(s.cfg.AdmitWait)
	defer timer.Stop()
	select {
	case s.admitCh <- struct{}{}:
		sp.SetStr("outcome", "ok").SetInt("waited", 1).End()
		return release, true
	case <-timer.C:
		w.Header().Set("Retry-After", s.retryAfterJitter(1, 2))
		s.writeError(w, http.StatusTooManyRequests,
			"admission queue full: no slot freed within %s (depth %d)", s.cfg.AdmitWait, s.cfg.AdmitDepth)
		sp.SetStr("outcome", "shed").End()
		return nil, false
	case <-r.Context().Done():
		sp.SetStr("outcome", "canceled").End()
		return nil, false
	case <-s.drain:
		s.writeError(w, http.StatusServiceUnavailable, "server draining")
		sp.SetStr("outcome", "draining").End()
		return nil, false
	}
}

// run executes f on the handler's own goroutine once it holds one of the
// Workers CPU slots, and reports whether f ran to completion. It reports
// false with nothing written when the client goes away first — a request
// cancelled while waiting never runs — and after answering 503 once the
// server is closed. A panic in f is contained and logged; a unary route
// answers it with 500, while a stream (whose response may already have
// begun) gets no JSON body and ends with the log line alone.
func (s *Server) run(w http.ResponseWriter, r *http.Request, stream bool, f func()) bool {
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		return false
	case <-s.closed:
		s.writeError(w, http.StatusServiceUnavailable, "server closed")
		return false
	}
	defer func() { <-s.slots }()
	// Both checks again: the slot may have been won in the same instant
	// the client hung up or Close began.
	select {
	case <-s.closed:
		s.writeError(w, http.StatusServiceUnavailable, "server closed")
		return false
	case <-r.Context().Done():
		return false
	default:
	}
	defer func() {
		if p := recover(); p != nil {
			s.logger.Error("handler panic", "method", r.Method, "path", r.URL.Path,
				"trace", obs.TraceID(r.Context()), "panic", p)
			if !stream {
				s.writeError(w, http.StatusInternalServerError, "server: panic: %v", p)
			}
		}
	}() // a recovered panic returns the zero result: false
	f()
	return true
}

// decodeBody enforces the shared request plumbing of every generation
// endpoint — POST only, size-limited body, strict JSON — writing the
// 405/400 response and reporting false on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// checkHorizon validates a requested horizon against MaxT, writing the
// 400 response on failure.
func (s *Server) checkHorizon(w http.ResponseWriter, t int) bool {
	if t <= 0 || t > s.cfg.MaxT {
		s.writeError(w, http.StatusBadRequest, "t must be in 1..%d, got %d", s.cfg.MaxT, t)
		return false
	}
	return true
}

// decodeGenerateRequest parses and validates the shared body of the
// unary and streaming generation endpoints, resolving the model and the
// seed. It reports false after writing the error response.
func (s *Server) decodeGenerateRequest(w http.ResponseWriter, r *http.Request) (GenerateRequest, *modelEntry, int64, bool) {
	var req GenerateRequest
	if !s.decodeBody(w, r, &req) || !s.checkHorizon(w, req.T) {
		return req, nil, 0, false
	}
	entry, err := s.lookup(req.Model)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return req, nil, 0, false
	}
	seed := s.drawSeed()
	if req.Seed != nil {
		seed = *req.Seed
	}
	return req, entry, seed, true
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	req, entry, seed, ok := s.decodeGenerateRequest(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	var (
		seq    *dyngraph.Sequence
		genErr error
		start  = time.Now()
	)
	ok = s.run(w, r, false, func() {
		seq, genErr = entry.model.GenerateCtx(r.Context(), core.GenOptions{
			T:            req.T,
			Source:       rand.NewSource(seed),
			DynamicNodes: req.DynamicNodes,
			Parallel:     true,
		})
	})
	if !ok {
		return
	}
	if genErr != nil {
		if r.Context().Err() != nil {
			return // client gone mid-generation; buffers already released
		}
		s.writeError(w, http.StatusInternalServerError, "generation failed: %v", genErr)
		return
	}
	entry.generated.Add(1)
	s.writeSequenceReply(w, r, GenerateResponse{
		Model:     entry.name,
		Seed:      seed,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}, seq)
}

// errDraining aborts an in-flight stream when the server begins draining.
var errDraining = errors.New("server draining")

func (s *Server) handleGenerateStream(w http.ResponseWriter, r *http.Request) {
	req, entry, seed, ok := s.decodeGenerateRequest(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	s.run(w, r, true, func() { s.streamGenerate(w, r, entry, seed, req) })
}

// streamGenerate runs under a CPU slot: the unconditional generation
// stream through the shared NDJSON emitter.
func (s *Server) streamGenerate(w http.ResponseWriter, r *http.Request, entry *modelEntry, seed int64, req GenerateRequest) {
	m := entry.model
	header := StreamHeader{Model: entry.name, Seed: seed, N: m.Cfg.N, F: m.Cfg.F, T: req.T}
	s.streamSnapshots(w, r, entry, header, func(yield func(*dyngraph.Snapshot) error) error {
		return m.GenerateStream(r.Context(), core.GenOptions{
			T:            req.T,
			Source:       rand.NewSource(seed),
			DynamicNodes: req.DynamicNodes,
			Parallel:     true,
		}, yield)
	})
}

// streamSnapshots is the NDJSON streaming emitter shared by the
// unconditional (/v1/generate/stream) and conditioned (/v1/forecast/stream)
// endpoints: it writes the header, one line per snapshot the run yields
// (flushed immediately so slow consumers apply backpressure instead of
// growing a server-side buffer), and a trailer. Snapshot buffers are
// recycled by the engine after each line is encoded, so a stream holds
// O(1) snapshots resident however long the horizon is.
func (s *Server) streamSnapshots(w http.ResponseWriter, r *http.Request, entry *modelEntry, header StreamHeader, run func(yield func(*dyngraph.Snapshot) error) error) {
	start := time.Now()
	flusher, _ := w.(http.Flusher)
	// When the request is traced, flush syscall time is accumulated into
	// one stream.flush span (per-line spans would swamp the trace).
	tr := obs.FromContext(r.Context())
	var flushTotal time.Duration
	var firstFlush time.Time
	flush := func() {
		if flusher == nil {
			return
		}
		if tr == nil {
			flusher.Flush()
			return
		}
		t0 := time.Now()
		flusher.Flush()
		if firstFlush.IsZero() {
			firstFlush = t0
		}
		flushTotal += time.Since(t0)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(header); err != nil {
		return
	}
	flush()

	emitted := 0
	var line []byte // one StreamSnapshot, encoded while the engine still owns snap
	err := run(func(snap *dyngraph.Snapshot) error {
		select {
		case <-s.drain:
			return errDraining
		default:
		}
		line = strconv.AppendInt(append(line[:0], `{"t":`...), int64(emitted), 10)
		var err error
		if line, err = snap.AppendJSONFields(append(line, ',')); err != nil {
			return err
		}
		line = append(line, "}\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
		flush()
		emitted++
		return nil
	})

	trailer := StreamTrailer{
		Done:      err == nil,
		Emitted:   emitted,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	switch {
	case err == nil:
		entry.generated.Add(1)
	case errors.Is(err, errDraining):
		trailer.Truncated = errDraining.Error()
	case r.Context().Err() != nil:
		return // client disconnected; no one is reading the trailer
	default:
		trailer.Error = err.Error()
	}
	if encErr := enc.Encode(&trailer); encErr != nil {
		return
	}
	flush()
	if tr != nil && !firstFlush.IsZero() {
		tr.Timed("stream.flush", firstFlush, flushTotal).SetInt("lines", int64(emitted)).End()
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.mu.RLock()
	infos := make([]ModelInfo, 0, len(s.models))
	for _, e := range s.models {
		infos = append(infos, ModelInfo{
			Name:      e.name,
			N:         e.model.Cfg.N,
			F:         e.model.Cfg.F,
			Params:    e.model.NumParams(),
			Trained:   e.model.Trained(),
			Generated: e.generated.Load(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	s.writeJSON(w, http.StatusOK, infos)
}

// handleHealthz reports structured liveness: status "ok" (serving),
// "degraded" (persistence latched read-only — forecasts still serve, so
// still 200), or "draining" (handing off, 503 so load balancers and peer
// probes stop routing here). The cluster hook attaches peer state and may
// flip the status to draining ahead of the local drain, which is how a
// node routes its sessions away before it stops accepting work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.models)
	s.mu.RUnlock()
	h := HealthResponse{
		Status: "ok", Models: n, Workers: s.cfg.Workers,
		Draining: s.draining(), Degraded: s.degraded.Load(),
	}
	if h.Degraded {
		h.Status = "degraded"
		h.Reason = s.degradedReason()
	}
	if h.Draining {
		h.Status = "draining"
		h.Reason = "draining for shutdown"
	}
	if f, ok := s.healthHook.Load().(func(*HealthResponse)); ok && f != nil {
		f(&h)
	}
	code := http.StatusOK
	if h.Status == "draining" {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}
