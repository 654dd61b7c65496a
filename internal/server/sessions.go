package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"vrdag/internal/core"
	"vrdag/internal/durable"
	"vrdag/internal/dyngraph"
	"vrdag/internal/ingest"
	"vrdag/internal/obs"
)

// Forecast sessions: POST /v1/ingest folds an uploaded temporal edge
// stream (NDJSON or CSV, plain or gzip) into a named session's recurrent
// model state — the stream is parsed window by window and each sealed
// snapshot is absorbed with Model.EncodeSnapshot, then recycled, so a
// session holds O(N) state however many edges were ingested, never the
// prefix itself. POST /v1/forecast and /v1/forecast/stream then generate
// plausible futures conditioned on everything the session has observed.
//
// A session may be fed incrementally: later /v1/ingest calls append to the
// same stream cursor (node mapping, window grid, and attribute carry all
// survive), so a live graph can be followed over hours and forecast at any
// point. Sessions are evicted after SessionTTL of disuse or when
// MaxSessions would be exceeded (idle-longest first); eviction and
// deletion release the session's pooled state back to the tensor arena.
//
// Concurrency: ingest holds the session's write lock, forecasts hold read
// locks. Forecasting never mutates the state (the engine copies it per
// request), so any number of forecasts run concurrently against a quiet
// session; an ingest serialises against them.

type forecastSession struct {
	name  string
	entry *modelEntry

	mu     sync.RWMutex // guards stream+state use and release
	stream *ingest.Stream
	state  *core.ForecastState
	closed bool

	// Durable-mode fields, guarded by mu. dir is set once at creation
	// ("" when the server has no DataDir) and read without the lock.
	meta       sessionMeta
	dir        string
	diskReady  bool // directory+meta exist; walGen/walNextSeq are valid
	wal        *durable.WAL
	walGen     uint64
	walNextSeq uint64
	sinceSnap  int         // WAL appends since the last snapshot
	spilled    bool        // state released to disk; reload before use
	spillInfo  SessionInfo // listing counters cached at spill time

	created time.Time

	useMu    sync.Mutex
	lastUsed time.Time
}

func (fs *forecastSession) touch(now time.Time) {
	fs.useMu.Lock()
	fs.lastUsed = now
	fs.useMu.Unlock()
}

func (fs *forecastSession) used() time.Time {
	fs.useMu.Lock()
	defer fs.useMu.Unlock()
	return fs.lastUsed
}

// release frees the session's pooled buffers: the encoded model state and
// any half-built (flush=false) ingest window still holding a pooled
// attribute matrix. Callers must not hold fs.mu.
func (fs *forecastSession) release() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.closed = true
	if fs.state != nil {
		fs.state.Release()
		fs.state = nil
	}
	if fs.stream != nil {
		fs.stream.DiscardPending()
		fs.stream = nil
	}
	if fs.wal != nil {
		fs.wal.Close()
		fs.wal = nil
	}
}

// sweepSessions applies the TTL and the MaxResident cap to every session.
// A session with state on disk is spilled, never destroyed: its state of
// record is there, and the next request reloads it. Spill triggers are TTL
// idleness and the cap (longest-idle first), which counts only sessions
// with state on disk. A session with nothing on disk (every session
// without a DataDir) is dropped once idle past the TTL. While the server
// is degraded a snapshot would fail, so nothing moves.
//
// A sweep visits every session, so it stays off the per-request path: it
// runs from sweepLoop, and on a request only at the two moments the
// resident set can outgrow a cap — a session is created (MaxSessions
// admits a newcomer only after the expired have gone) or reloaded from
// spill (MaxResident). A request otherwise applies the TTL to its own
// session alone (expireIdle). It must be called without sessMu held.
func (s *Server) sweepSessions(now time.Time) {
	if s.degraded.Load() {
		return
	}
	s.sessMu.Lock()
	all := make([]*forecastSession, 0, len(s.sessions))
	for _, fs := range s.sessions {
		all = append(all, fs)
	}
	s.sessMu.Unlock()

	type cand struct {
		fs   *forecastSession
		idle time.Duration
	}
	var resident []cand
	for _, fs := range all {
		// An ingest holds the write lock, across its fsync in durable mode.
		// A session that busy is in use, hence not idle: pass it over — for
		// the cap as well, the next sweep counts it — and never wait for
		// its lock.
		if !fs.mu.TryRLock() {
			continue
		}
		closed, spilled, ready := fs.closed, fs.spilled, fs.diskReady
		fs.mu.RUnlock()
		if closed || spilled {
			continue
		}
		idle := now.Sub(fs.used())
		if !ready {
			if idle > s.cfg.SessionTTL {
				s.dropSession(fs)
			}
			continue
		}
		resident = append(resident, cand{fs, idle})
	}
	sort.Slice(resident, func(i, j int) bool { return resident[i].idle > resident[j].idle })
	over := len(resident) - s.cfg.MaxResident
	for i, c := range resident {
		if c.idle <= s.cfg.SessionTTL && i >= over {
			continue
		}
		if err := s.spillSession(c.fs); err != nil {
			s.logger.Error("spill session", "session", c.fs.name, "err", err)
			s.setDegraded(err)
			return
		}
	}
}

// expireIdle applies the TTL to the one session a request is about, with
// the outcome a sweep would have had for it: past the TTL a session with
// nothing on disk (every session without a DataDir, and a durable one
// that never got as far as its WAL) is dropped and released; one with
// state on disk is spilled and reloads lazily when the request goes on to
// use it. It takes no other session's lock, so a request never queues
// behind another session's ingest. It reports whether the session is gone.
func (s *Server) expireIdle(fs *forecastSession, now time.Time) bool {
	if now.Sub(fs.used()) <= s.cfg.SessionTTL {
		return false
	}
	if s.degraded.Load() {
		return false // as in sweepSessions: a snapshot would fail, keep it resident
	}
	fs.mu.RLock()
	ready := fs.diskReady
	fs.mu.RUnlock()
	if ready {
		if err := s.spillSession(fs); err != nil {
			s.logger.Error("spill session", "session", fs.name, "err", err)
			s.setDegraded(err)
		}
		return false
	}
	s.dropSession(fs)
	return true
}

// lookupSession resolves a live session by name, refreshing its TTL.
func (s *Server) lookupSession(name string) (*forecastSession, error) {
	if name == "" {
		return nil, fmt.Errorf("session name required")
	}
	s.sessMu.Lock()
	fs, ok := s.sessions[name]
	s.sessMu.Unlock()
	now := time.Now()
	if !ok || s.expireIdle(fs, now) {
		return nil, fmt.Errorf("unknown session %q (expired or never created)", name)
	}
	fs.touch(now)
	return fs, nil
}

// releaseAllSessions drops every session; used by Close.
func (s *Server) releaseAllSessions() {
	s.sessMu.Lock()
	all := make([]*forecastSession, 0, len(s.sessions))
	for name, fs := range s.sessions {
		delete(s.sessions, name)
		all = append(all, fs)
	}
	s.sessMu.Unlock()
	for _, fs := range all {
		fs.release()
	}
}

// validSessionName admits 1-64 characters of [a-zA-Z0-9._-] with no
// leading dot. Session names become on-disk directory components in
// durable mode, so anything that could escape the sessions root — "..",
// ".", path separators, or a hidden-file prefix colliding with our own
// metadata — is rejected as hostile input, not merely unexpected.
func validSessionName(name string) bool {
	if name == "" || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '/' || c == '\\' {
			return false
		}
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// handleIngest routes the session resource: POST feeds a session (creating
// it on first use), GET lists sessions, DELETE removes one.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleIngestPost(w, r)
	case http.MethodGet:
		s.handleIngestList(w)
	case http.MethodDelete:
		s.handleIngestDelete(w, r)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "POST, GET or DELETE required")
	}
}

func (s *Server) handleIngestList(w http.ResponseWriter) {
	s.sweepSessions(time.Now())
	now := time.Now()
	// Snapshot the session set under the store lock, then read per-session
	// stats outside it: a session mid-ingest holds its own lock for the
	// whole fold, and waiting on it under sessMu would stall every session
	// endpoint behind one slow upload.
	s.sessMu.Lock()
	live := make([]*forecastSession, 0, len(s.sessions))
	for _, fs := range s.sessions {
		live = append(live, fs)
	}
	s.sessMu.Unlock()
	infos := make([]SessionInfo, 0, len(live))
	for _, fs := range live {
		fs.mu.RLock()
		info := SessionInfo{
			Session: fs.name,
			Model:   fs.entry.name,
			AgeS:    now.Sub(fs.created).Seconds(),
			IdleS:   now.Sub(fs.used()).Seconds(),
			TTLS:    s.cfg.SessionTTL.Seconds(),
		}
		counters := sessionCountersLocked(fs)
		if fs.spilled {
			// The live cursor is on disk; report the counters cached at
			// spill time rather than forcing a reload for a listing.
			info.Spilled = true
			counters = fs.spillInfo
		}
		info.Steps = counters.Steps
		info.Edges = counters.Edges
		info.Records = counters.Records
		info.Dropped = counters.Dropped
		info.Nodes = counters.Nodes
		fs.mu.RUnlock()
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Session < infos[j].Session })
	s.writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleIngestDelete(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("session")
	s.sessMu.Lock()
	fs, ok := s.sessions[name]
	if ok {
		delete(s.sessions, name)
	}
	s.sessMu.Unlock()
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown session %q", name)
		return
	}
	fs.release()
	if fs.dir != "" {
		// A failed removal is logged, not fatal: the next session created
		// under this name wipes the directory before writing its own
		// state (ensureSessionDurableLocked).
		if err := s.fsys.RemoveAll(fs.dir); err != nil {
			s.logger.Error("remove session dir", "dir", fs.dir, "err", err)
		}
	}
	s.writeJSON(w, http.StatusOK, SessionDeleteResponse{Session: name, Deleted: true})
}

// ingestQuery carries the query-string options of POST /v1/ingest. Stream
// options (window, drop_unknown, carry) only apply when the request
// creates the session; on later appends the session's existing cursor
// wins. flush is per request: the default true seals the request's final
// window so its edges condition forecasts immediately — which closes that
// window for good, so later appends must carry strictly later timestamps.
// Clients splitting one logical stream mid-window pass flush=false on all
// but the last chunk.
type ingestQuery struct {
	session     string
	model       string
	window      float64
	dropUnknown bool
	carry       bool
	flush       bool
}

func (s *Server) parseIngestQuery(w http.ResponseWriter, r *http.Request) (ingestQuery, bool) {
	q := r.URL.Query()
	iq := ingestQuery{
		session: q.Get("session"),
		model:   q.Get("model"),
		window:  1,
		carry:   true,
		flush:   true,
	}
	if !validSessionName(iq.session) {
		s.writeError(w, http.StatusBadRequest,
			"session must be 1-64 chars of [a-zA-Z0-9._-] with no leading dot, got %q", iq.session)
		return iq, false
	}
	if v := q.Get("window"); v != "" {
		parsed, err := strconv.ParseFloat(v, 64)
		if err != nil || parsed <= 0 {
			s.writeError(w, http.StatusBadRequest, "window must be a positive number, got %q", v)
			return iq, false
		}
		iq.window = parsed
	}
	boolParam := func(name string, def bool) (bool, bool) {
		v := q.Get(name)
		if v == "" {
			return def, true
		}
		parsed, err := strconv.ParseBool(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%s must be a boolean, got %q", name, v)
			return def, false
		}
		return parsed, true
	}
	var ok bool
	if iq.dropUnknown, ok = boolParam("drop_unknown", false); !ok {
		return iq, false
	}
	if iq.carry, ok = boolParam("carry", true); !ok {
		return iq, false
	}
	if iq.flush, ok = boolParam("flush", true); !ok {
		return iq, false
	}
	return iq, true
}

func (s *Server) handleIngestPost(w http.ResponseWriter, r *http.Request) {
	iq, ok := s.parseIngestQuery(w, r)
	if !ok {
		return
	}
	if s.degraded.Load() {
		// Accepting an ingest that cannot be made durable would silently
		// break the recovery contract; shed it and keep serving reads.
		w.Header().Set("Retry-After", s.retryAfterJitter(20, 20))
		s.writeError(w, http.StatusServiceUnavailable,
			"persistence degraded, ingest is read-only: %s", s.degradedReason())
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	// Spool the size-bounded body under the admission slot but before the
	// CPU slot: a slow network upload must not hold one of the Workers
	// slots while blocked on socket reads, yet concurrent spools (up to
	// MaxIngestBytes each) stay bounded by AdmitDepth rather than by
	// however many sockets the listener accepts.
	var body bytes.Buffer
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes)); err != nil {
		if r.Context().Err() != nil {
			return // client gone mid-upload
		}
		s.writeError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}

	fs, created, err := s.getOrCreateSession(iq)
	if err != nil {
		status := http.StatusNotFound // no such model, as /v1/generate answers
		if errors.Is(err, errSessionCapacity) {
			status = http.StatusTooManyRequests
		}
		s.writeError(w, status, "%v", err)
		return
	}
	if created {
		w.Header().Set(HeaderCreated, "1")
	}
	if iq.model != "" && fs.entry.name != iq.model {
		s.writeError(w, http.StatusConflict,
			"session %q belongs to model %q, not %q", fs.name, fs.entry.name, iq.model)
		return
	}

	start := time.Now()
	var resp IngestResponse
	var genErr error
	var persistErr, reloaded bool
	ok = s.run(w, r, false, func() {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if fs.closed {
			genErr = fmt.Errorf("session %q was evicted mid-request", fs.name)
			return
		}
		reloaded = fs.spilled
		if genErr = s.loadSessionLocked(fs); genErr != nil {
			persistErr = true
			return
		}
		durableSess := fs.dir != ""
		if durableSess {
			// Append-then-fold: the raw body is fsynced into the session
			// WAL before any of it touches the in-memory state, so an
			// acknowledged ingest survives a kill at any instant and
			// replay reproduces exactly the folds that happened live.
			if genErr = s.appendSessionWALLocked(r.Context(), fs, body.Bytes(), iq.flush); genErr != nil {
				persistErr = true
				s.setDegraded(genErr)
				return
			}
		}
		absorbed := 0
		emit := func(snap *dyngraph.Snapshot) error {
			// In durable mode the fold runs to completion even if the
			// client hangs up: the WAL record is already durable, and
			// recovery replays whole records — memory must match.
			if !durableSess {
				if err := r.Context().Err(); err != nil {
					return err
				}
			}
			sp := obs.Start(r.Context(), "encode")
			err := fs.entry.model.EncodeSnapshot(fs.state, snap)
			sp.SetInt("edges", int64(snap.NumEdges())).SetErr(err).End()
			snap.Recycle()
			if err == nil {
				absorbed++
			}
			return err
		}
		// From here on a failure leaves the records folded before it in
		// place (the WAL replay keeps them too).
		w.Header().Set(HeaderFolded, "1")
		foldSp := obs.Start(r.Context(), "ingest.fold").SetInt("bytes", int64(body.Len()))
		genErr = fs.stream.Fold(&body, emit)
		if genErr == nil && iq.flush {
			genErr = fs.stream.Flush(emit)
		}
		foldSp.SetInt("absorbed", int64(absorbed)).SetErr(genErr).End()
		if genErr != nil {
			return
		}
		if durableSess {
			if err := s.maybeSnapshotLocked(fs); err != nil {
				// The ingest itself is durable in the WAL; a failed
				// compaction degrades the server but not this request.
				s.logger.Error("snapshot session", "session", fs.name,
					"trace", obs.TraceID(r.Context()), "err", err)
				s.setDegraded(err)
			}
		}
		// Snapshot the counters while the lock still guarantees the
		// session is live: a concurrent DELETE or TTL sweep may release
		// the state the moment this section ends.
		resp = IngestResponse{
			Session:  fs.name,
			Model:    fs.entry.name,
			Created:  created,
			Absorbed: absorbed,
			Steps:    fs.state.Steps(),
			Edges:    fs.stream.Edges(),
			Records:  fs.stream.Records(),
			Dropped:  fs.stream.Dropped(),
			Nodes:    fs.stream.NodesSeen(),
			Pending:  fs.stream.PendingWindow(),
		}
	})
	if !ok {
		return
	}
	if reloaded {
		s.sweepSessions(time.Now()) // the resident set grew: hold MaxResident
	}
	if genErr != nil {
		if r.Context().Err() != nil {
			return // client gone mid-request
		}
		if persistErr {
			w.Header().Set("Retry-After", s.retryAfterJitter(20, 20))
			s.writeError(w, http.StatusServiceUnavailable, "ingest not persisted: %v", genErr)
			return
		}
		s.writeError(w, http.StatusBadRequest, "ingest failed: %v", genErr)
		return
	}
	now := time.Now()
	fs.touch(now)
	resp.ElapsedMS = float64(now.Sub(start).Microseconds()) / 1000
	resp.ExpiresAt = now.Add(s.cfg.SessionTTL).UTC().Format(time.RFC3339)
	s.writeJSON(w, http.StatusOK, resp)
}

// errSessionCapacity is getOrCreateSession's answer when MaxSessions live
// sessions leave no room for a newcomer; every other error it returns is
// the model lookup's.
var errSessionCapacity = errors.New("session capacity reached")

// getOrCreateSession finds or creates the named session, enforcing the
// session capacity (before a newcomer is counted the expired sessions are
// swept; live ones are never evicted for it). Finding an existing session
// sweeps nothing.
func (s *Server) getOrCreateSession(iq ingestQuery) (*forecastSession, bool, error) {
	now := time.Now()
	s.sessMu.Lock()
	fs, ok := s.sessions[iq.session]
	s.sessMu.Unlock()
	if ok && !s.expireIdle(fs, now) {
		fs.touch(now)
		return fs, false, nil
	}

	entry, err := s.lookup(iq.model)
	if err != nil {
		return nil, false, err
	}
	meta := sessionMeta{Model: entry.name, Window: iq.window, DropUnknown: iq.dropUnknown, Carry: iq.carry}
	stream, state, err := newSessionState(entry.model, meta)
	if err != nil {
		return nil, false, err
	}
	fs = s.newSession(iq.session, entry, meta, stream, state)

	s.sweepSessions(now)
	s.sessMu.Lock()
	if existing, ok := s.sessions[iq.session]; ok {
		// Lost a creation race; use the winner and drop ours.
		s.sessMu.Unlock()
		fs.release()
		existing.touch(time.Now())
		return existing, false, nil
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.sessMu.Unlock()
		fs.release()
		return nil, false, fmt.Errorf("%w (%d); delete a session or retry later", errSessionCapacity, s.cfg.MaxSessions)
	}
	s.sessions[iq.session] = fs
	s.sessMu.Unlock()
	return fs, true, nil
}

// newSession wraps a stream cursor and model state as a session created
// now. With a DataDir, dir marks it durable for every handler; its disk
// state is laid down by whichever write comes first, under fs.mu.
func (s *Server) newSession(name string, entry *modelEntry, meta sessionMeta,
	stream *ingest.Stream, state *core.ForecastState) *forecastSession {
	fs := &forecastSession{name: name, entry: entry, meta: meta, stream: stream, state: state, created: time.Now()}
	if s.durable() {
		fs.dir = s.sessionDir(name)
	}
	fs.touch(fs.created)
	return fs
}

// decodeForecastRequest parses the shared body of the unary and streaming
// forecast endpoints and resolves the session and seed.
func (s *Server) decodeForecastRequest(w http.ResponseWriter, r *http.Request) (ForecastRequest, *forecastSession, int64, bool) {
	var req ForecastRequest
	if !s.decodeBody(w, r, &req) || !s.checkHorizon(w, req.T) {
		return req, nil, 0, false
	}
	fs, err := s.lookupSession(req.Session)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return req, nil, 0, false
	}
	if err := s.ensureResident(fs); err != nil {
		w.Header().Set("Retry-After", s.retryAfterJitter(1, 1))
		s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		return req, nil, 0, false
	}
	seed := s.drawSeed()
	if req.Seed != nil {
		seed = *req.Seed
	}
	return req, fs, seed, true
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	req, fs, seed, ok := s.decodeForecastRequest(w, r)
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
		steps  int
		genErr error
		start  = time.Now()
	)
	ok = s.run(w, r, false, func() {
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		if fs.closed {
			genErr = fmt.Errorf("session %q was evicted", fs.name)
			return
		}
		if fs.spilled {
			genErr = errSpilled
			return
		}
		steps = fs.state.Steps()
		seq, genErr = fs.entry.model.Forecast(r.Context(), fs.state, core.GenOptions{
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
			return
		}
		if errors.Is(genErr, errSpilled) {
			// A sweep won the race between reload and the read lock.
			w.Header().Set("Retry-After", s.retryAfterJitter(1, 1))
			s.writeError(w, http.StatusServiceUnavailable, "%v", genErr)
			return
		}
		s.writeError(w, http.StatusInternalServerError, "forecast failed: %v", genErr)
		return
	}
	fs.entry.generated.Add(1)
	s.writeSequenceReply(w, r, ForecastResponse{
		Session:   fs.name,
		Model:     fs.entry.name,
		Seed:      seed,
		Steps:     steps,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}, seq)
}

func (s *Server) handleForecastStream(w http.ResponseWriter, r *http.Request) {
	req, fs, seed, ok := s.decodeForecastRequest(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	s.run(w, r, true, func() {
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		if fs.closed {
			s.writeError(w, http.StatusNotFound, "session %q was evicted", fs.name)
			return
		}
		if fs.spilled {
			w.Header().Set("Retry-After", s.retryAfterJitter(1, 1))
			s.writeError(w, http.StatusServiceUnavailable, "%v", errSpilled)
			return
		}
		m := fs.entry.model
		header := StreamHeader{
			Model: fs.entry.name, Session: fs.name, Steps: fs.state.Steps(),
			Seed: seed, N: m.Cfg.N, F: m.Cfg.F, T: req.T,
		}
		s.streamSnapshots(w, r, fs.entry, header, func(yield func(*dyngraph.Snapshot) error) error {
			return m.ForecastStream(r.Context(), fs.state, core.GenOptions{
				T:            req.T,
				Source:       rand.NewSource(seed),
				DynamicNodes: req.DynamicNodes,
				Parallel:     true,
			}, yield)
		})
	})
}
