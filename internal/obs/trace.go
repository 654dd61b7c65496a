// Package obs is vrdag's zero-dependency observability layer: request
// traces made of stage spans (admission wait, WAL fsync, per-timestep
// decode, cluster hops, ...), a bounded lock-free ring of completed
// traces for /v1/trace, a Prometheus text-exposition builder for
// /metrics, and log/slog helpers for structured request logging.
//
// The API is nil-safe end to end so instrumented code needs no guards:
// obs.Start returns a nil *Span when the context carries no trace, and
// every Span/Trace method no-ops on a nil receiver. A request on a
// disabled tracer therefore costs one field load at the root plus one
// context lookup per instrumented stage.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the HTTP header that propagates a trace ID across cluster
// hops and returns it to the client. A client may supply its own ID
// (8–64 chars of [0-9A-Za-z_-]); an invalid one is replaced by a fresh ID.
const Header = "X-Vrdag-Trace"

const (
	// slowestCap is how many slowest traces are retained alongside the
	// ring.
	slowestCap = 16
	// maxSpans bounds the spans recorded per trace; overflow increments
	// the trace's dropped count instead of growing.
	maxSpans = 192
)

// Config configures a Tracer. The zero value is a usable tracer with a
// 256-trace ring and no slow-trace log.
type Config struct {
	// Ring is the capacity of the completed-trace ring (rounded up to a
	// power of two; default 256).
	Ring int

	// SlowMS logs any trace whose wall time meets the threshold, spans
	// included, through Logger (0 disables).
	SlowMS float64

	// Logger receives slow-trace records. Nil means slow traces are
	// counted but not logged.
	Logger *slog.Logger
}

// Tracer owns trace lifecycle: the completed ring, the slowest-N list,
// and slow-trace logging. A tracer from New traces every request it is
// handed; one from Disabled, or a nil *Tracer, traces none.
type Tracer struct {
	cfg     Config
	enabled bool

	ring []atomic.Pointer[Trace] // power-of-two length
	pos  atomic.Uint64           // next ring slot to write

	slowMu    sync.Mutex
	slowest   []*Trace     // ascending by wall time
	slowFloor atomic.Int64 // wall ns of slowest[0] once full; -1 before

	started   atomic.Int64
	finished  atomic.Int64
	slowCount atomic.Int64
	dropped   atomic.Int64 // spans dropped by per-trace cap
}

// New builds a Tracer. See Config for defaults.
func New(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	rl := 1
	for rl < cfg.Ring {
		rl <<= 1
	}
	t := &Tracer{cfg: cfg, enabled: true, ring: make([]atomic.Pointer[Trace], rl)}
	t.slowFloor.Store(-1)
	return t
}

// Disabled returns a tracer that never traces: StartTrace returns a nil
// trace and every downstream span call no-ops.
func Disabled() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer traces.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

type ctxKey struct{}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// TraceID returns the ID of the trace carried by ctx, or "".
func TraceID(ctx context.Context) string {
	if tr := FromContext(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// StartTrace begins a trace named name and returns a derived context
// carrying it. id is the client- or peer-supplied trace ID ("" mints a
// fresh one, as does an invalid one). Returns (ctx, nil) when the tracer
// is nil or disabled.
func (t *Tracer) StartTrace(ctx context.Context, name, id string) (context.Context, *Trace) {
	if !t.Enabled() {
		return ctx, nil
	}
	if !ValidID(id) {
		id = NewID()
	}
	tr := &Trace{tracer: t, ID: id, Name: name, start: time.Now()}
	t.started.Add(1)
	return context.WithValue(ctx, ctxKey{}, tr), tr
}

// Start opens a span on the trace carried by ctx; nil (a no-op span)
// when the request is untraced. Callers must End the span.
func Start(ctx context.Context, name string) *Span {
	return FromContext(ctx).StartSpan(name)
}

// Trace is one request's record: an ID shared across cluster hops and
// the spans of every instrumented stage. Spans attach on End; the trace
// becomes visible on /v1/trace once Finish runs.
type Trace struct {
	tracer *Tracer
	ID     string
	Name   string
	start  time.Time

	mu     sync.Mutex
	spans  []*Span
	nDrop  int
	wall   time.Duration
	status int
	done   bool

	wrote atomic.Int64 // offset of the latest Wrote, in ns; 0 until the first
}

// Wrote marks that the reply's next bytes are about to be handed to the
// connection. The writer that owns a trace's reply calls it before every
// Write (a Flush only pushes bytes already written): Finish then ends the
// wall at the latest mark instead of at its own call. A reply larger than
// the write buffer leaves inside its Write, and a flushed one before the
// handler returns, so a wall that ran on to Finish could outlast the
// client's wait for the reply; and what the handler does after its last
// write (waiting for a proxied body's EOF, bookkeeping) is not part of
// the reply. Nil-safe.
func (tr *Trace) Wrote() {
	if tr != nil {
		tr.wrote.Store(int64(max(time.Since(tr.start), 1)))
	}
}

// StartSpan opens a span at the current instant. Nil-safe.
func (tr *Trace) StartSpan(name string) *Span {
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, name: name, start: time.Since(tr.start), dur: -1}
}

// Timed records an interval measured externally (e.g. accumulated flush
// time across a stream): start is when the interval began, d its
// duration. The caller may tag the returned span and must End it.
func (tr *Trace) Timed(name string, start time.Time, d time.Duration) *Span {
	if tr == nil {
		return nil
	}
	return &Span{tr: tr, name: name, start: start.Sub(tr.start), dur: d}
}

func (tr *Trace) addSpan(s *Span) {
	tr.mu.Lock()
	if tr.done || len(tr.spans) >= maxSpans {
		tr.nDrop++
		tr.mu.Unlock()
		tr.tracer.dropped.Add(1)
		return
	}
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// Finish seals the trace with the response status and publishes it to
// the completed ring (and the slowest list / slow log when it
// qualifies). Idempotent and nil-safe.
func (tr *Trace) Finish(status int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.wall = time.Since(tr.start)
	if w := time.Duration(tr.wrote.Load()); w > 0 {
		// The reply ended at its last write: spans are cut to it.
		tr.wall = w
		for _, s := range tr.spans {
			s.start = min(s.start, w)
			s.dur = min(s.dur, w-s.start)
		}
	}
	tr.status = status
	tr.mu.Unlock()

	t := tr.tracer
	t.finished.Add(1)
	slot := (t.pos.Add(1) - 1) & uint64(len(t.ring)-1)
	t.ring[slot].Store(tr)
	t.noteSlow(tr)
	if t.cfg.SlowMS > 0 && float64(tr.wall)/1e6 >= t.cfg.SlowMS {
		t.slowCount.Add(1)
		if t.cfg.Logger != nil {
			v := tr.View()
			t.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "slow trace",
				slog.String("trace", v.ID),
				slog.String("name", v.Name),
				slog.Int("status", v.Status),
				slog.Float64("wall_ms", float64(tr.wall)/1e6),
				slog.Int("spans_dropped", v.SpansDropped),
				slog.Any("spans", v.Spans),
			)
		}
	}
}

func (t *Tracer) noteSlow(tr *Trace) {
	if f := t.slowFloor.Load(); f >= 0 && int64(tr.wall) <= f {
		return
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	i := sort.Search(len(t.slowest), func(i int) bool { return t.slowest[i].wall >= tr.wall })
	t.slowest = append(t.slowest, nil)
	copy(t.slowest[i+1:], t.slowest[i:])
	t.slowest[i] = tr
	if len(t.slowest) > slowestCap {
		copy(t.slowest, t.slowest[1:])
		t.slowest = t.slowest[:slowestCap]
	}
	if len(t.slowest) == slowestCap {
		t.slowFloor.Store(int64(t.slowest[0].wall))
	}
}

// Span is one timed stage within a trace. All methods no-op on nil, so
// instrumentation sites need no "is tracing on" guards.
type Span struct {
	tr    *Trace
	name  string
	start time.Duration // offset from trace start
	dur   time.Duration // -1 until End for live spans
	tags  []tag
	errs  string
	ended bool
}

type tag struct {
	k     string
	s     string
	i     int64
	isStr bool
}

// SetInt attaches an integer tag (byte counts, edge counts, ...).
func (s *Span) SetInt(k string, v int64) *Span {
	if s != nil {
		s.tags = append(s.tags, tag{k: k, i: v})
	}
	return s
}

// SetStr attaches a string tag (peer, outcome, ...).
func (s *Span) SetStr(k, v string) *Span {
	if s != nil {
		s.tags = append(s.tags, tag{k: k, s: v, isStr: true})
	}
	return s
}

// SetErr tags the span with an error; nil err is ignored.
func (s *Span) SetErr(err error) *Span {
	if s != nil && err != nil {
		s.errs = err.Error()
	}
	return s
}

// End closes the span and attaches it to its trace. Tags must be set
// before End; a span published to the trace is immutable.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if s.dur < 0 {
		s.dur = time.Since(s.tr.start) - s.start
	}
	s.tr.addSpan(s)
}

// TraceView is the JSON shape of a completed trace on /v1/trace.
type TraceView struct {
	ID           string     `json:"id"`
	Name         string     `json:"name"`
	Node         string     `json:"node,omitempty"` // stamped by the cluster fan-out
	Start        time.Time  `json:"start"`
	WallUS       int64      `json:"wall_us"`
	Status       int        `json:"status"`
	Spans        []SpanView `json:"spans"`
	SpansDropped int        `json:"spans_dropped,omitempty"`
}

// SpanView is one span in a TraceView; offsets are relative to the
// trace start.
type SpanView struct {
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Err     string         `json:"err,omitempty"`
	Tags    map[string]any `json:"tags,omitempty"`
}

// View snapshots the trace. Safe on finished traces from the ring;
// spans still in flight are simply absent.
func (tr *Trace) View() TraceView {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	v := TraceView{
		ID:           tr.ID,
		Name:         tr.Name,
		Start:        tr.start,
		WallUS:       tr.wall.Microseconds(),
		Status:       tr.status,
		Spans:        make([]SpanView, 0, len(tr.spans)),
		SpansDropped: tr.nDrop,
	}
	for _, s := range tr.spans {
		sv := SpanView{Name: s.name, StartUS: s.start.Microseconds(), DurUS: s.dur.Microseconds(), Err: s.errs}
		if len(s.tags) > 0 {
			sv.Tags = make(map[string]any, len(s.tags))
			for _, t := range s.tags {
				if t.isStr {
					sv.Tags[t.k] = t.s
				} else {
					sv.Tags[t.k] = t.i
				}
			}
		}
		v.Spans = append(v.Spans, sv)
	}
	return v
}

// Recent returns up to n completed traces, newest first.
func (t *Tracer) Recent(n int) []TraceView {
	if t == nil || n <= 0 {
		return nil
	}
	out := make([]TraceView, 0, n)
	p := t.pos.Load()
	mask := uint64(len(t.ring) - 1)
	for i := uint64(0); i < uint64(len(t.ring)) && len(out) < n; i++ {
		tr := t.ring[(p-1-i)&mask].Load()
		if tr == nil {
			break
		}
		out = append(out, tr.View())
	}
	return out
}

// Slowest returns up to n of the slowest completed traces, slowest
// first.
func (t *Tracer) Slowest(n int) []TraceView {
	if t == nil || n <= 0 {
		return nil
	}
	t.slowMu.Lock()
	trs := make([]*Trace, 0, n)
	for i := len(t.slowest) - 1; i >= 0 && len(trs) < n; i-- {
		trs = append(trs, t.slowest[i])
	}
	t.slowMu.Unlock()
	out := make([]TraceView, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.View())
	}
	return out
}

// ByID returns every retained completed trace with the given ID (a
// request that crossed hops on one node, or ingest+forecast sharing a
// client-supplied ID, yields several), ordered by start time.
func (t *Tracer) ByID(id string) []TraceView {
	if t == nil || id == "" {
		return nil
	}
	seen := make(map[*Trace]bool)
	var trs []*Trace
	for i := range t.ring {
		if tr := t.ring[i].Load(); tr != nil && tr.ID == id && !seen[tr] {
			seen[tr] = true
			trs = append(trs, tr)
		}
	}
	t.slowMu.Lock()
	for _, tr := range t.slowest {
		if tr.ID == id && !seen[tr] {
			seen[tr] = true
			trs = append(trs, tr)
		}
	}
	t.slowMu.Unlock()
	if len(trs) == 0 {
		return nil
	}
	sort.Slice(trs, func(i, j int) bool { return trs[i].start.Before(trs[j].start) })
	out := make([]TraceView, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.View())
	}
	return out
}

// TracerStats are the tracer's own counters, rendered on /metrics and
// /v1/trace.
type TracerStats struct {
	Enabled      bool  `json:"enabled"`
	Started      int64 `json:"started"`
	Finished     int64 `json:"finished"`
	Slow         int64 `json:"slow,omitempty"`
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// Stats snapshots the tracer counters. Nil-safe.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		Enabled:      t.enabled,
		Started:      t.started.Load(),
		Finished:     t.finished.Load(),
		Slow:         t.slowCount.Load(),
		SpansDropped: t.dropped.Load(),
	}
}

// idCtr seeds trace IDs: a per-process random-ish base advanced per ID,
// run through splitmix64 so concurrent nodes mint distinct IDs.
var idCtr atomic.Uint64

func init() {
	idCtr.Store(uint64(time.Now().UnixNano()))
}

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// NewID mints a 32-hex-char trace ID.
func NewID() string {
	x := idCtr.Add(0x9e3779b97f4a7c15)
	return fmt.Sprintf("%016x%016x", mix64(x), mix64(x^0xa5a5a5a55a5a5a5a))
}

// ValidID reports whether a header-supplied trace ID is acceptable:
// 8–64 chars of [0-9A-Za-z_-].
func ValidID(id string) bool {
	if len(id) < 8 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// NewLogger builds a slog.Logger writing to w in the given format
// ("json" or anything else for text). The shared constructor behind
// every binary's -log-format flag.
func NewLogger(w io.Writer, format string) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, nil)
	} else {
		h = slog.NewTextHandler(w, nil)
	}
	return slog.New(h)
}
