package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vrdag/internal/core"
	"vrdag/internal/durable"
	"vrdag/internal/dyngraph"
	"vrdag/internal/ingest"
	"vrdag/internal/obs"
)

// Session durability. When Config.DataDir is set, every forecast session
// is backed by a directory <DataDir>/sessions/<name> holding:
//
//	meta.json   — model name and stream options (written once at creation)
//	state.snap  — atomic snapshot of the encoded ForecastState, the ingest
//	              cursor, and the WAL position it covers
//	wal.<gen>   — CRC32C-framed log of raw ingest request bodies
//
// The contract is durable's "state = snapshot + WAL tail": every
// /v1/ingest body is appended (and fsynced) to the session WAL *before*
// it is folded into memory, so an acknowledged ingest survives a kill
// at any instant. Folding is deterministic — same bytes, same cursor,
// same state — so replaying the WAL tail on top of the last snapshot
// reconstructs the pre-crash session exactly, and a forecast from the
// recovered state is byte-identical to one from the live state.
//
// Every snapshotEvery appends the session compacts: the full state is
// written with WriteFileAtomic recording the log position, the WAL
// rotates to a fresh generation, and superseded generations are removed.
// The same snapshot path lets idle sessions spill out of RAM entirely
// (MaxResident cap, TTL idleness) and lazily reload on next use.
//
// A failed persistence write latches the server into degraded read-only
// mode: ingest is refused with 503 + Retry-After (accepting writes that
// cannot be made durable would silently break the recovery contract),
// while forecasts — which only read — keep serving. The latch is
// surfaced on /metrics (vrdag_durability_degraded) and, with its reason,
// on /healthz; restarting the process after fixing the disk clears it
// through the normal recovery path.

const (
	sessionMetaFile = "meta.json"
	sessionSnapFile = "state.snap"

	// snapshotEvery is how many appended ingest requests a session's WAL
	// holds before it is compacted into a snapshot.
	snapshotEvery = 8
)

// sessionMeta records what recovery needs before any snapshot exists:
// which model the session belongs to and the stream options it was
// created with.
type sessionMeta struct {
	Model       string  `json:"model"`
	Window      float64 `json:"window"`
	DropUnknown bool    `json:"drop_unknown,omitempty"`
	Carry       bool    `json:"carry"`
}

// walRecord is one WAL frame payload: the raw ingest request body plus
// the per-request flush flag, i.e. exactly the inputs handleIngestPost
// feeds the stream cursor. Replay re-runs the same Fold/Flush calls.
type walRecord struct {
	Body  []byte
	Flush bool
}

// sessionSnap is the state.snap payload. Gen/Seq are the WAL position
// the snapshot covers: recovery replays generations >= Gen applying
// frames with sequence > Seq.
type sessionSnap struct {
	Gen      uint64
	Seq      uint64
	Forecast []byte // core.EncodeForecastState bytes
	Stream   *ingest.StreamState
}

// errSpilled marks the benign race where a session is spilled between a
// handler's reload and its read-lock; the client retries.
var errSpilled = errors.New("session spilled to disk mid-request; retry")

// durStats aggregates durability counters for /metrics. Fsync latencies
// land in a bounded ring so percentiles reflect recent behaviour without
// unbounded memory.
type durStats struct {
	walAppends atomic.Int64
	snapshots  atomic.Int64
	recoveries atomic.Int64
	tornTails  atomic.Int64
	spills     atomic.Int64
	reloads    atomic.Int64

	mu         sync.Mutex
	fsyncCount int64
	ring       []time.Duration
	pos        int
}

// fsyncRing bounds the latency samples kept for percentile estimates.
const fsyncRing = 4096

func (d *durStats) observeFsync(e time.Duration) {
	d.mu.Lock()
	if len(d.ring) < fsyncRing {
		d.ring = append(d.ring, e)
	} else {
		d.ring[d.pos] = e
		d.pos = (d.pos + 1) % fsyncRing
	}
	d.fsyncCount++
	d.mu.Unlock()
}

// fsyncQuantiles reports the sample count and the p50/p99 of the recent
// fsync latency window, in milliseconds.
func (d *durStats) fsyncQuantiles() (count int64, p50, p99 float64) {
	d.mu.Lock()
	count = d.fsyncCount
	buf := append([]time.Duration(nil), d.ring...)
	d.mu.Unlock()
	if len(buf) == 0 {
		return count, 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	q := func(p float64) float64 {
		i := int(p*float64(len(buf)-1) + 0.5)
		return float64(buf[i].Microseconds()) / 1000
	}
	return count, q(0.50), q(0.99)
}

// durable reports whether session persistence is enabled.
func (s *Server) durable() bool { return s.cfg.DataDir != "" }

func (s *Server) sessionDir(name string) string {
	return filepath.Join(s.cfg.DataDir, "sessions", name)
}

// setDegraded latches the read-only mode, keeping the first cause.
func (s *Server) setDegraded(err error) {
	s.degradedMu.Lock()
	if s.degradedWhy == "" {
		s.degradedWhy = err.Error()
		s.logger.Error("persistence failed, entering degraded read-only mode", "err", err)
	}
	s.degradedMu.Unlock()
	s.degraded.Store(true)
}

func (s *Server) degradedReason() string {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return s.degradedWhy
}

// ensureSessionDurableLocked lays down a fresh session's on-disk state:
// directory, metadata, and the first WAL generation. Anything a crashed
// delete or an unrecovered previous life left under the name is wiped
// first — this session starts from nothing, so must its directory.
// Caller holds fs.mu.
func (s *Server) ensureSessionDurableLocked(fs *forecastSession) error {
	if fs.dir == "" || fs.diskReady {
		return nil
	}
	if err := s.fsys.RemoveAll(fs.dir); err != nil {
		return fmt.Errorf("wipe stale session dir: %w", err)
	}
	if err := s.fsys.MkdirAll(fs.dir, 0o755); err != nil {
		return fmt.Errorf("create session dir: %w", err)
	}
	data, err := json.Marshal(fs.meta)
	if err != nil {
		return fmt.Errorf("encode session meta: %w", err)
	}
	if err := durable.WriteFileAtomic(s.fsys, filepath.Join(fs.dir, sessionMetaFile), data); err != nil {
		return err
	}
	fs.walGen, fs.walNextSeq = 1, 1
	fs.diskReady = true
	return nil
}

// ensureWALLocked opens the session's current WAL generation for
// appending, if it is not already open. Caller holds fs.mu.
func (s *Server) ensureWALLocked(fs *forecastSession) error {
	if fs.wal != nil {
		return nil
	}
	w, err := durable.OpenWAL(s.fsys, fs.dir, fs.walGen, fs.walNextSeq)
	if err != nil {
		return err
	}
	w.OnSync = s.dur.observeFsync
	fs.wal = w
	return nil
}

// appendSessionWALLocked makes one ingest request durable before it is
// folded: the raw body and flush flag are framed, appended, and fsynced.
// On error nothing was acknowledged and the caller must not fold.
// Caller holds fs.mu. ctx carries the request trace; the span covers
// framing, append, and the fsync the WAL performs inside Append.
func (s *Server) appendSessionWALLocked(ctx context.Context, fs *forecastSession, body []byte, flush bool) error {
	sp := obs.Start(ctx, "wal.append").SetInt("bytes", int64(len(body)))
	err := s.doAppendSessionWALLocked(fs, body, flush)
	sp.SetErr(err).End()
	return err
}

func (s *Server) doAppendSessionWALLocked(fs *forecastSession, body []byte, flush bool) error {
	if err := s.ensureSessionDurableLocked(fs); err != nil {
		return err
	}
	if err := s.ensureWALLocked(fs); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&walRecord{Body: body, Flush: flush}); err != nil {
		return fmt.Errorf("encode wal record: %w", err)
	}
	if _, err := fs.wal.Append(buf.Bytes()); err != nil {
		return err
	}
	fs.walNextSeq = fs.wal.NextSeq()
	fs.sinceSnap++
	s.dur.walAppends.Add(1)
	return nil
}

// snapshotSessionLocked compacts the session: full state to state.snap
// (atomically, recording the covered WAL position), then rotates the log
// to a fresh generation and removes the superseded ones. Crash-safe at
// every point — recovery either sees the old snapshot plus the old log,
// or the new snapshot (under which old generations are ignored).
// Caller holds fs.mu; the session must be resident and diskReady.
func (s *Server) snapshotSessionLocked(fs *forecastSession) error {
	gen, data, err := encodeSessionSnapLocked(fs)
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(s.fsys, filepath.Join(fs.dir, sessionSnapFile), data); err != nil {
		return err
	}
	if fs.wal != nil {
		fs.wal.Close()
		fs.wal = nil
	}
	oldGen := fs.walGen
	fs.walGen = gen
	fs.sinceSnap = 0
	// Superseded generations are dead weight; removal is best-effort
	// because recovery ignores generations below the snapshot's anyway.
	if gens, err := durable.ListWALGens(s.fsys, fs.dir); err == nil {
		for _, g := range gens {
			if g <= oldGen {
				s.fsys.Remove(durable.WALPath(fs.dir, g))
			}
		}
	}
	s.dur.snapshots.Add(1)
	return nil
}

// encodeSessionSnapLocked encodes the resident session as a state.snap
// payload covering every WAL frame so far, positioned at the next
// generation, which it returns. Caller holds fs.mu, read or write.
func encodeSessionSnapLocked(fs *forecastSession) (gen uint64, data []byte, err error) {
	enc, err := core.EncodeForecastState(fs.state)
	if err != nil {
		return 0, nil, err
	}
	snap := sessionSnap{
		Gen:      fs.walGen + 1,
		Seq:      max(fs.walNextSeq, 1) - 1,
		Forecast: enc,
		Stream:   fs.stream.State(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return 0, nil, fmt.Errorf("encode session snapshot: %w", err)
	}
	return snap.Gen, buf.Bytes(), nil
}

// decodeSessionSnap is the one decoder of a state.snap payload, read from
// disk or installed from a peer. It rejects a payload built for another N
// or F, or whose WAL position cannot be continued.
func decodeSessionSnap(m *core.Model, data []byte) (snap sessionSnap, stream *ingest.Stream, state *core.ForecastState, err error) {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return snap, nil, nil, fmt.Errorf("decode snapshot: %w", err)
	}
	switch {
	case snap.Stream == nil:
		return snap, nil, nil, fmt.Errorf("snapshot has no stream cursor")
	case snap.Stream.Opts.N != m.Cfg.N || snap.Stream.Opts.F != m.Cfg.F:
		return snap, nil, nil, fmt.Errorf("snapshot stream is N=%d F=%d, model wants N=%d F=%d",
			snap.Stream.Opts.N, snap.Stream.Opts.F, m.Cfg.N, m.Cfg.F)
	case snap.Gen == 0 || snap.Seq == math.MaxUint64:
		return snap, nil, nil, fmt.Errorf("snapshot WAL position %d/%d cannot be continued", snap.Gen, snap.Seq)
	}
	if state, err = m.DecodeForecastState(snap.Forecast); err != nil {
		return snap, nil, nil, err
	}
	if stream, err = ingest.RestoreStream(snap.Stream); err != nil {
		state.Release()
		return snap, nil, nil, err
	}
	return snap, stream, state, nil
}

// ExportSession returns the named session's model and its state as the
// bytes snapshotSessionLocked writes to state.snap (a spilled session's
// are read back from it), which InstallSession takes on another server.
func (s *Server) ExportSession(name string) (model string, data []byte, err error) {
	s.sessMu.Lock()
	fs, ok := s.sessions[name]
	s.sessMu.Unlock()
	if !ok {
		return "", nil, fmt.Errorf("server: unknown session %q", name)
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	switch {
	case fs.closed:
		err = fmt.Errorf("server: session %q was evicted", name)
	case fs.spilled:
		data, err = durable.ReadFile(s.fsys, filepath.Join(fs.dir, sessionSnapFile))
	default:
		_, data, err = encodeSessionSnapLocked(fs)
	}
	return fs.entry.name, data, err
}

// InstallSession replaces or creates the named session with state that
// ExportSession produced for model, past MaxSessions: a follower holds
// what its primary holds. A payload that does not decode for the model
// leaves any existing session as it was. With a DataDir the state is the
// session's state.snap before InstallSession returns; a failed write
// degrades the server and leaves the state resident only.
func (s *Server) InstallSession(name, model string, data []byte) error {
	if !validSessionName(name) {
		return fmt.Errorf("server: invalid session name %q", name)
	}
	if s.degraded.Load() {
		return fmt.Errorf("server: persistence degraded: %s", s.degradedReason())
	}
	entry, err := s.lookup(model)
	if err != nil {
		return err
	}
	snap, stream, state, err := decodeSessionSnap(entry.model, data)
	if err != nil {
		return fmt.Errorf("server: install session %q: %w", name, err)
	}
	opts := snap.Stream.Opts
	fs := s.newSession(name, entry,
		sessionMeta{Model: entry.name, Window: opts.Window, DropUnknown: opts.DropUnknown, Carry: opts.CarryAttrs}, stream, state)
	// Locked before it is visible; the old session is released, which waits
	// out its in-flight spill or ingest, before their directory is rewritten.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s.sessMu.Lock()
	old := s.sessions[name]
	s.sessions[name] = fs
	s.sessMu.Unlock()
	if old != nil {
		old.release()
	}
	if fs.dir == "" {
		return nil
	}
	err = s.ensureSessionDurableLocked(fs)
	if err == nil {
		err = durable.WriteFileAtomic(s.fsys, filepath.Join(fs.dir, sessionSnapFile), data)
	}
	if err != nil {
		s.setDegraded(err)
		return fmt.Errorf("server: install session %q: %w", name, err)
	}
	fs.walGen, fs.walNextSeq = snap.Gen, snap.Seq+1
	return nil
}

// maybeSnapshotLocked compacts when enough appends have accumulated.
func (s *Server) maybeSnapshotLocked(fs *forecastSession) error {
	if fs.sinceSnap < snapshotEvery {
		return nil
	}
	return s.snapshotSessionLocked(fs)
}

// sessionCountersLocked reads the listing counters; caller holds fs.mu
// (read or write).
func sessionCountersLocked(fs *forecastSession) SessionInfo {
	var info SessionInfo
	if fs.state != nil {
		info.Steps = fs.state.Steps()
	}
	if fs.stream != nil {
		info.Edges = fs.stream.Edges()
		info.Records = fs.stream.Records()
		info.Dropped = fs.stream.Dropped()
		info.Nodes = fs.stream.NodesSeen()
	}
	return info
}

// spillSession snapshots a session to disk and releases its pooled
// in-memory state; the map entry stays so the name resolves and a later
// request lazily reloads. Sessions that never ingested have nothing on
// disk and are left resident.
func (s *Server) spillSession(fs *forecastSession) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed || fs.spilled || !fs.diskReady {
		return nil
	}
	if err := s.snapshotSessionLocked(fs); err != nil {
		return err
	}
	fs.spillInfo = sessionCountersLocked(fs)
	fs.state.Release()
	fs.state = nil
	fs.stream.DiscardPending()
	fs.stream = nil
	if fs.wal != nil {
		fs.wal.Close()
		fs.wal = nil
	}
	fs.spilled = true
	s.dur.spills.Add(1)
	return nil
}

// loadSessionLocked reloads a spilled session through readSessionState,
// the reader startup recovery uses. A spill snapshots first and nothing is
// appended while spilled, so the WAL tail it replays is empty and the
// position it reads back must be the one the session had. Caller holds
// fs.mu.
func (s *Server) loadSessionLocked(fs *forecastSession) error {
	if fs.closed {
		return fmt.Errorf("session %q was evicted", fs.name)
	}
	if !fs.spilled {
		return nil
	}
	stream, state, walGen, nextSeq, err := s.readSessionState(fs.entry.model, fs.dir, fs.meta)
	if err != nil {
		return fmt.Errorf("reload session %q: %w", fs.name, err)
	}
	if walGen != fs.walGen || nextSeq != fs.walNextSeq {
		state.Release()
		stream.DiscardPending()
		return fmt.Errorf("reload session %q: on-disk state ends at wal %d/%d, spilled at %d/%d",
			fs.name, walGen, nextSeq, fs.walGen, fs.walNextSeq)
	}
	fs.state, fs.stream = state, stream
	fs.spilled = false
	s.dur.reloads.Add(1)
	return nil
}

// ensureResident reloads a spilled session before a handler takes its
// read lock. A sweep may re-spill it in the window between this call and
// the read lock; handlers treat that as the retryable errSpilled.
func (s *Server) ensureResident(fs *forecastSession) error {
	fs.mu.Lock()
	reloaded := fs.spilled
	err := s.loadSessionLocked(fs)
	fs.mu.Unlock()
	if reloaded && err == nil {
		s.sweepSessions(time.Now()) // the resident set grew: hold MaxResident
	}
	return err
}

// flushDirtySessions compacts every resident session with un-snapshotted
// WAL appends, so a clean shutdown leaves each session recoverable from
// its snapshot alone. Called by BeginDrain after the sweeper has stopped.
func (s *Server) flushDirtySessions() {
	s.sessMu.Lock()
	all := make([]*forecastSession, 0, len(s.sessions))
	for _, fs := range s.sessions {
		all = append(all, fs)
	}
	s.sessMu.Unlock()
	for _, fs := range all {
		fs.mu.Lock()
		if !fs.closed && !fs.spilled && fs.diskReady && fs.sinceSnap > 0 {
			if err := s.snapshotSessionLocked(fs); err != nil {
				// The WAL still holds every acknowledged append, so no
				// data is lost — the next start just replays more.
				s.logger.Error("flush session", "session", fs.name, "err", err)
				s.setDegraded(err)
			}
		}
		fs.mu.Unlock()
	}
}

// sweepLoop is the background TTL/residency sweeper, stopped by
// BeginDrain (which waits for it before flushing session state).
func (s *Server) sweepLoop() {
	defer s.sweepWG.Done()
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.drain:
			return
		case now := <-t.C:
			s.sweepSessions(now)
		}
	}
}

// dropSession removes a session from the map and releases it, unless the
// name has since been taken by another session. The sweep and expireIdle
// use it for a session idle past the TTL with nothing on disk.
func (s *Server) dropSession(fs *forecastSession) {
	s.sessMu.Lock()
	if cur, ok := s.sessions[fs.name]; !ok || cur != fs {
		s.sessMu.Unlock()
		return
	}
	delete(s.sessions, fs.name)
	s.sessMu.Unlock()
	fs.release()
}

// RecoverSessions scans DataDir for persisted sessions and rebuilds each
// as snapshot + WAL-tail replay, registering them under their names.
// Call it once after Register and before serving traffic. Sessions that
// cannot be recovered (unknown model, unreadable metadata) are skipped
// with a log line rather than failing the rest; torn WAL tails are
// truncated in place. It returns the number of sessions recovered.
func (s *Server) RecoverSessions() (int, error) {
	if !s.durable() {
		return 0, nil
	}
	root := filepath.Join(s.cfg.DataDir, "sessions")
	entries, err := s.fsys.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("server: scan %s: %w", root, err)
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !validSessionName(name) {
			continue
		}
		fs, err := s.recoverSession(name)
		if err != nil {
			s.logger.Warn("skipping unrecoverable session", "session", name, "err", err)
			continue
		}
		s.sessMu.Lock()
		_, dup := s.sessions[name]
		if !dup {
			s.sessions[name] = fs
		}
		s.sessMu.Unlock()
		if dup {
			fs.release()
			continue
		}
		s.dur.recoveries.Add(1)
		n++
	}
	return n, nil
}

// recoverSession rebuilds one session from disk: its metadata, then the
// state readSessionState reads back.
func (s *Server) recoverSession(name string) (*forecastSession, error) {
	dir := s.sessionDir(name)
	metaData, err := durable.ReadFile(s.fsys, filepath.Join(dir, sessionMetaFile))
	if err != nil {
		return nil, fmt.Errorf("read meta: %w", err)
	}
	var meta sessionMeta
	if err := json.Unmarshal(metaData, &meta); err != nil {
		return nil, fmt.Errorf("decode meta: %w", err)
	}
	entry, err := s.lookup(meta.Model)
	if err != nil {
		return nil, err
	}
	stream, state, walGen, nextSeq, err := s.readSessionState(entry.model, dir, meta)
	if err != nil {
		return nil, err
	}
	fs := s.newSession(name, entry, meta, stream, state)
	fs.diskReady, fs.walGen, fs.walNextSeq = true, walGen, nextSeq
	return fs, nil
}

// newSessionState builds the empty stream cursor and model state a
// session created with meta's options starts from.
func newSessionState(m *core.Model, meta sessionMeta) (*ingest.Stream, *core.ForecastState, error) {
	stream, err := ingest.NewStream(ingest.Options{
		N:           m.Cfg.N,
		F:           m.Cfg.F,
		Window:      meta.Window,
		DropUnknown: meta.DropUnknown,
		CarryAttrs:  meta.Carry,
		Pooled:      true,
	})
	if err != nil {
		return nil, nil, err
	}
	return stream, m.NewForecastState(), nil
}

// readSessionState is the one reader of a session's on-disk state: the
// snapshot in dir (or a fresh state when none exists), then every WAL
// frame past the snapshot's position, folded exactly as the live requests
// were. Records whose fold failed live fail identically here and are
// skipped, reproducing the live session's partial effects. It returns the
// WAL position appends continue from: the newest generation and the next
// sequence number.
func (s *Server) readSessionState(m *core.Model, dir string, meta sessionMeta) (
	stream *ingest.Stream, state *core.ForecastState, walGen, nextSeq uint64, err error) {
	var snapGen, afterSeq uint64
	walGen, nextSeq = 1, 1
	snapData, err := durable.ReadFile(s.fsys, filepath.Join(dir, sessionSnapFile))
	switch {
	case err == nil:
		var snap sessionSnap
		if snap, stream, state, err = decodeSessionSnap(m, snapData); err != nil {
			return nil, nil, 0, 0, err
		}
		snapGen, afterSeq = snap.Gen, snap.Seq
		walGen, nextSeq = snap.Gen, snap.Seq+1
	case os.IsNotExist(err):
		if stream, state, err = newSessionState(m, meta); err != nil {
			return nil, nil, 0, 0, err
		}
	default:
		return nil, nil, 0, 0, fmt.Errorf("read snapshot: %w", err)
	}
	fail := func(err error) (*ingest.Stream, *core.ForecastState, uint64, uint64, error) {
		state.Release()
		stream.DiscardPending()
		return nil, nil, 0, 0, err
	}

	emit := func(snap *dyngraph.Snapshot) error {
		err := m.EncodeSnapshot(state, snap)
		snap.Recycle()
		return err
	}
	apply := func(seq uint64, payload []byte) error {
		var rec walRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		if err := stream.Fold(bytes.NewReader(rec.Body), emit); err != nil {
			return nil // the live request got its 400; same partial effects
		}
		if rec.Flush {
			stream.Flush(emit) // a live flush error was a 400 too
		}
		return nil
	}
	gens, err := durable.ListWALGens(s.fsys, dir)
	if err != nil {
		return fail(err)
	}
	for _, g := range gens {
		if g < snapGen {
			s.fsys.Remove(durable.WALPath(dir, g)) // superseded by the snapshot
			continue
		}
		lastSeq, torn, err := durable.ReplayWAL(s.fsys, durable.WALPath(dir, g), afterSeq, apply)
		if err != nil {
			return fail(fmt.Errorf("replay wal gen %d: %w", g, err))
		}
		if torn {
			s.dur.tornTails.Add(1)
		}
		walGen = max(walGen, g)
		nextSeq = max(nextSeq, lastSeq+1)
	}
	return stream, state, walGen, nextSeq, nil
}

// DurabilityStats is the session persistence state renderProm turns into
// families: how often the WAL is hit, what the fsync tax looks like, and
// whether the server has latched into degraded read-only mode (the reason
// is on /healthz).
type DurabilityStats struct {
	Degraded bool

	WALAppends int64
	Snapshots  int64
	Recoveries int64
	TornTails  int64
	Spills     int64
	Reloads    int64

	ResidentSessions int
	SpilledSessions  int

	// Fsync latency over a bounded window of recent WAL appends.
	FsyncCount int64
	FsyncP50MS float64
	FsyncP99MS float64
}

// durabilityStats renders the durability counters for /metrics.
func (s *Server) durabilityStats() *DurabilityStats {
	s.sessMu.Lock()
	all := make([]*forecastSession, 0, len(s.sessions))
	for _, fs := range s.sessions {
		all = append(all, fs)
	}
	s.sessMu.Unlock()
	resident, spilled := 0, 0
	for _, fs := range all {
		fs.mu.RLock()
		if fs.spilled {
			spilled++
		} else if !fs.closed {
			resident++
		}
		fs.mu.RUnlock()
	}
	count, p50, p99 := s.dur.fsyncQuantiles()
	return &DurabilityStats{
		Degraded:         s.degraded.Load(),
		WALAppends:       s.dur.walAppends.Load(),
		Snapshots:        s.dur.snapshots.Load(),
		Recoveries:       s.dur.recoveries.Load(),
		TornTails:        s.dur.tornTails.Load(),
		Spills:           s.dur.spills.Load(),
		Reloads:          s.dur.reloads.Load(),
		ResidentSessions: resident,
		SpilledSessions:  spilled,
		FsyncCount:       count,
		FsyncP50MS:       p50,
		FsyncP99MS:       p99,
	}
}
