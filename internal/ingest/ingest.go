// Package ingest turns temporal edge streams — NDJSON or CSV lines of
// (src, dst, t[, attrs…]), plain or gzip-compressed — into windowed
// dyngraph.Snapshots with bounded memory, so observed dynamic graphs can
// be folded into a model's recurrent state as they arrive.
//
// The package is built around Stream, a resumable folding cursor: it maps
// external node IDs onto the model's 0..N-1 index universe, buckets
// timestamps into fixed-width windows, and seals one snapshot at a time as
// the stream crosses a window boundary. Memory is O(N·F + |E_window|)
// regardless of how many edges flow through: exactly one snapshot is under
// construction at any moment. With Options.Pooled one snapshot, its
// attributes drawn from the tensor arena, serves every window, and
// steady-state CSV folding allocates only for node IDs seen for the first
// time.
//
// Determinism contract (pinned by the fuzz test): for a given byte stream
// and options, Fold either returns an error or produces exactly the same
// snapshots — duplicate edges collapse, records inside one window commute
// for structure (last-write-wins for attributes, in input order), and a
// record whose window precedes the one under construction is an error, not
// a silent reorder. Malformed input of any shape errors; it never panics.
package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// Format selects the record syntax of an edge stream.
type Format int

const (
	// FormatAuto sniffs per stream: a first non-blank byte of '{' selects
	// NDJSON, anything else CSV.
	FormatAuto Format = iota
	// FormatNDJSON parses one JSON object per line:
	//   {"src":"a","dst":"b","t":3.5,"x":[0.1,0.2]}
	// src/dst accept strings or numbers; x (optional) carries the source
	// node's attribute observation at that time.
	FormatNDJSON
	// FormatCSV parses comma-separated lines:
	//   src,dst,t[,x1,...,xF]
	// A leading "src,dst,t..." header line and #-comments are skipped.
	FormatCSV
)

// Options configures a Stream.
type Options struct {
	// N is the node-universe size (required, > 0): the model's Cfg.N.
	// External IDs are assigned indices 0..N-1 in first-seen order unless
	// Nodes pins the mapping.
	N int
	// F is the attribute dimensionality of the produced snapshots; 0 folds
	// structure only (attribute payloads are then rejected as malformed —
	// silently dropping observed data is worse than erroring).
	F int

	// Format picks the record syntax; FormatAuto sniffs.
	Format Format

	// Window is the timestamp width of one snapshot (default 1): a record
	// with timestamp t lands in window floor((t-origin)/Window), where
	// origin is the first record's window floor. Records are accepted in
	// non-decreasing window order; within a window any order is fine.
	Window float64

	// Nodes, when non-nil, pins the external-ID mapping and freezes the
	// node set: unseen IDs are then unknown regardless of capacity.
	Nodes map[string]int

	// DropUnknown drops records naming nodes outside the universe (ID
	// capacity exhausted, or absent from a pinned Nodes map) instead of
	// erroring. Dropped counts are reported on the Stream.
	DropUnknown bool

	// CarryAttrs initialises each new window's attributes from the last
	// observation per node instead of zero, so sparsely observed attribute
	// streams stay piecewise-constant between observations.
	CarryAttrs bool

	// Pooled draws snapshot attribute matrices from the tensor arena and
	// reuses one snapshot for every window: as with bufio.Scanner.Bytes,
	// the snapshot handed to emit is the Stream's again once emit returns
	// (recycled, its matrix back in the arena), so the consumer must be
	// done with it and every view of it by then. Leave it off when
	// snapshots escape into long-lived sequences.
	Pooled bool

	// MaxWindowGap bounds how many consecutive empty windows a timestamp
	// jump may imply (default 4096): each gap window is emitted as an
	// empty snapshot, so an absurd timestamp would otherwise turn into an
	// unbounded snapshot flood.
	MaxWindowGap int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 1
	}
	if o.MaxWindowGap <= 0 {
		o.MaxWindowGap = 4096
	}
	return o
}

// ErrOutOfOrder reports a record whose window index precedes the window
// under construction. Wrapped errors carry line context; test with
// errors.Is.
var ErrOutOfOrder = errors.New("ingest: record out of window order")

// ErrUnknownNode reports a record naming a node outside the universe when
// DropUnknown is off.
var ErrUnknownNode = errors.New("ingest: unknown node")

// Stream is a resumable folding cursor over a temporal edge stream. One
// Stream may span several Fold calls on successive readers (e.g. chunked
// HTTP uploads): the node mapping, window cursor, and attribute carry
// survive between calls. Zero value is not usable; construct with
// NewStream. Not safe for concurrent use.
type Stream struct {
	opts   Options
	format Format // resolved on first record when FormatAuto

	nodes     map[string]int
	nextID    int
	frozen    bool // Nodes was caller-pinned
	lastAttr  []float64
	haveAttr  []bool
	hasOrigin bool
	origin    float64 // window floor of the first record's timestamp
	window    int64   // index of the window under construction
	cur       *dyngraph.Snapshot
	spare     *dyngraph.Snapshot // Pooled: the last emitted snapshot, emptied for the next window
	scanBuf   []byte             // the line scanner's starting buffer, shared by every Fold
	xbuf      []float64          // the CSV parser's attribute row; fold copies out of it

	headerChecked bool   // the stream-first CSV header sniff has run
	header        string // the header line sniffed on the first chunk, if any
	foldFirst     bool   // next non-blank line is the first of the current Fold

	lines   int64 // lines consumed across all Fold calls (for error context)
	edges   int64 // edges accepted (deduplicated adds)
	records int64 // records parsed
	dropped int64 // records dropped (DropUnknown)
	sealed  int64 // snapshots emitted
}

// NewStream constructs a folding cursor.
func NewStream(opts Options) (*Stream, error) {
	opts = opts.withDefaults()
	if opts.N <= 0 {
		return nil, fmt.Errorf("ingest: Options.N must be positive, got %d", opts.N)
	}
	if opts.F < 0 {
		return nil, fmt.Errorf("ingest: Options.F must be non-negative, got %d", opts.F)
	}
	s := &Stream{opts: opts, format: opts.Format, nodes: make(map[string]int, opts.N)}
	if opts.Nodes != nil {
		s.frozen = true
		for id, idx := range opts.Nodes {
			if idx < 0 || idx >= opts.N {
				return nil, fmt.Errorf("ingest: pinned node %q maps to %d, outside 0..%d", id, idx, opts.N-1)
			}
			s.nodes[id] = idx
		}
	}
	if opts.F > 0 {
		s.lastAttr = make([]float64, opts.N*opts.F)
		s.haveAttr = make([]bool, opts.N)
	}
	return s, nil
}

// Edges returns the number of deduplicated edges folded so far.
func (s *Stream) Edges() int64 { return s.edges }

// Records returns the number of records parsed so far.
func (s *Stream) Records() int64 { return s.records }

// Dropped returns the number of records dropped under DropUnknown.
func (s *Stream) Dropped() int64 { return s.dropped }

// Snapshots returns the number of snapshots sealed so far.
func (s *Stream) Snapshots() int64 { return s.sealed }

// NodesSeen returns how many distinct node IDs have been mapped.
func (s *Stream) NodesSeen() int { return len(s.nodes) }

// PendingWindow reports whether a window is under construction — records
// have been folded into it but no boundary crossing or Flush has sealed
// it yet.
func (s *Stream) PendingWindow() bool { return s.cur != nil }

// DiscardPending drops the window under construction without sealing it,
// recycling its pooled buffers. Used on teardown, where the half-built
// window will never be encoded; the cursor stays valid and the next
// record reopens the same window.
func (s *Stream) DiscardPending() {
	if s.cur != nil {
		s.cur.Recycle()
		s.cur = nil
	}
}

// record is one parsed edge observation; a CSV record aliases the scanned
// line and the Stream's attribute row, so it is folded before the next.
type record struct {
	src, dst []byte
	t        float64
	x        []float64 // nil when the record carries no attributes
}

// Fold consumes r to EOF, parsing records and sealing finished windows
// through emit. Gzip input is sniffed and decompressed transparently. The
// window under construction at EOF is NOT sealed — a later Fold may keep
// filling it; call Flush when the logical stream ends. A non-nil error
// from emit aborts the fold and is returned verbatim. On parse errors the
// cursor stays valid: everything already emitted stands, and the failed
// record has no partial effect.
func (s *Stream) Fold(r io.Reader, emit func(*dyngraph.Snapshot) error) error {
	s.foldFirst = true
	rr, err := dyngraph.DecompressAuto(r)
	if err != nil {
		return err
	}
	if s.scanBuf == nil {
		s.scanBuf = make([]byte, 4096)
	}
	sc := bufio.NewScanner(rr)
	sc.Buffer(s.scanBuf, 4*1024*1024)
	for sc.Scan() {
		s.lines++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if s.format == FormatAuto {
			if line[0] == '{' {
				s.format = FormatNDJSON
			} else {
				s.format = FormatCSV
			}
		}
		if s.format == FormatCSV && s.foldFirst {
			s.foldFirst = false
			// Header handling across chunked inputs: the stream's very
			// first line may declare a header (sniffed by shape); later
			// Folds skip their first line only when it repeats that exact
			// header. Anything else on a chunk boundary is data and gets
			// the normal loud parse error — a corrupt record must never
			// vanish by resembling a header.
			if !s.headerChecked {
				s.headerChecked = true
				if isCSVHeader(string(line)) {
					s.header = string(line)
					continue
				}
			} else if s.header != "" && string(line) == s.header {
				continue
			}
		}
		rec, err := s.parse(line)
		if err != nil {
			return fmt.Errorf("ingest: line %d: %w", s.lines, err)
		}
		if err := s.fold(rec, emit); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("ingest: line %d exceeds the 4 MiB line limit", s.lines+1)
		}
		return fmt.Errorf("ingest: read: %w", err)
	}
	return nil
}

// Flush seals the window under construction, if any, through emit. It is
// the end-of-stream marker: the sealed window is closed for good, so a
// later Fold may only open strictly later windows (records landing back
// in the sealed window are out of order). Callers chunking one logical
// stream across several Folds should either align chunk boundaries to
// window boundaries or defer Flush to the true end of the stream.
func (s *Stream) Flush(emit func(*dyngraph.Snapshot) error) error {
	if s.cur == nil {
		return nil
	}
	return s.seal(emit)
}

// seal hands the window under construction (an empty one when nothing
// was folded into it) to emit and advances the window clock. In Pooled
// mode the snapshot comes back to the Stream once emit returns.
func (s *Stream) seal(emit func(*dyngraph.Snapshot) error) error {
	snap := s.cur
	if snap == nil {
		snap = s.newSnapshot()
	}
	s.cur = nil
	s.window++
	s.sealed++
	err := emit(snap)
	if s.opts.Pooled {
		snap.Recycle()
		s.spare = snap
	}
	return err
}

// parse dispatches on the resolved format.
func (s *Stream) parse(line []byte) (record, error) {
	if s.format == FormatNDJSON {
		return parseNDJSON(string(line), s.opts.F)
	}
	return s.parseCSV(line)
}

// isCSVHeader recognises a leading header row: the third field is not a
// number (e.g. "src,dst,t" or "source,target,time,attr1").
func isCSVHeader(line string) bool {
	fields := strings.Split(line, ",")
	if len(fields) < 3 {
		return false
	}
	_, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
	return err != nil
}

// parseCSV splits line in place: src and dst alias it, and attributes
// land in the Stream's attribute row. Numbers parse from non-escaping
// string views, so a record allocates nothing.
func (s *Stream) parseCSV(line []byte) (record, error) {
	f := s.opts.F
	n := bytes.Count(line, []byte(",")) + 1
	if n != 3 && n != 3+f {
		return record{}, fmt.Errorf("want 3 or %d comma-separated fields, got %d", 3+f, n)
	}
	var rec record
	rec.src, line = cutField(line)
	rec.dst, line = cutField(line)
	if len(rec.src) == 0 || len(rec.dst) == 0 {
		return record{}, fmt.Errorf("empty src or dst")
	}
	field, line := cutField(line)
	t, err := strconv.ParseFloat(string(field), 64)
	if err != nil || math.IsNaN(t) || math.IsInf(t, 0) {
		return record{}, fmt.Errorf("bad timestamp %q", field)
	}
	rec.t = t
	if n > 3 {
		if s.xbuf == nil {
			s.xbuf = make([]float64, f)
		}
		for j := range s.xbuf {
			field, line = cutField(line)
			v, err := strconv.ParseFloat(string(field), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return record{}, fmt.Errorf("bad attribute value %q", field)
			}
			s.xbuf[j] = v
		}
		rec.x = s.xbuf
	}
	return rec, nil
}

// cutField returns the trimmed field before the first comma and the rest
// of the line after it.
func cutField(line []byte) (field, rest []byte) {
	if i := bytes.IndexByte(line, ','); i >= 0 {
		return bytes.TrimSpace(line[:i]), line[i+1:]
	}
	return bytes.TrimSpace(line), nil
}

// ndjsonRecord mirrors the NDJSON wire shape; src/dst tolerate JSON
// strings and numbers.
type ndjsonRecord struct {
	Src json.RawMessage `json:"src"`
	Dst json.RawMessage `json:"dst"`
	T   *float64        `json:"t"`
	X   []float64       `json:"x"`
}

func parseNDJSON(line string, f int) (record, error) {
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	var nr ndjsonRecord
	if err := dec.Decode(&nr); err != nil {
		return record{}, fmt.Errorf("bad NDJSON record: %v", err)
	}
	if dec.More() {
		return record{}, fmt.Errorf("trailing data after the NDJSON record")
	}
	src, err := jsonID(nr.Src)
	if err != nil {
		return record{}, fmt.Errorf("bad src: %v", err)
	}
	dst, err := jsonID(nr.Dst)
	if err != nil {
		return record{}, fmt.Errorf("bad dst: %v", err)
	}
	if nr.T == nil {
		return record{}, fmt.Errorf("missing timestamp field \"t\"")
	}
	if math.IsNaN(*nr.T) || math.IsInf(*nr.T, 0) {
		return record{}, fmt.Errorf("bad timestamp %v", *nr.T)
	}
	rec := record{src: []byte(src), dst: []byte(dst), t: *nr.T}
	if nr.X != nil {
		if f == 0 {
			return record{}, fmt.Errorf("attribute payload on a structure-only stream (F=0)")
		}
		if len(nr.X) != f {
			return record{}, fmt.Errorf("attribute payload has %d values, want %d", len(nr.X), f)
		}
		for _, v := range nr.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return record{}, fmt.Errorf("non-finite attribute value %v", v)
			}
		}
		rec.x = nr.X
	}
	return rec, nil
}

// jsonID accepts a JSON string or number as a node identifier.
func jsonID(raw json.RawMessage) (string, error) {
	if len(raw) == 0 {
		return "", fmt.Errorf("missing")
	}
	var str string
	if raw[0] == '"' {
		if err := json.Unmarshal(raw, &str); err != nil {
			return "", err
		}
		if str == "" {
			return "", fmt.Errorf("empty")
		}
		return str, nil
	}
	var num json.Number
	if err := json.Unmarshal(raw, &num); err != nil {
		return "", fmt.Errorf("want string or number, got %s", raw)
	}
	return num.String(), nil
}

// fold applies one parsed record to the cursor, sealing windows as needed.
func (s *Stream) fold(rec record, emit func(*dyngraph.Snapshot) error) error {
	s.records++
	w, err := s.windowOf(rec.t)
	if err != nil {
		return fmt.Errorf("ingest: line %d: %w", s.lines, err)
	}
	switch {
	case !s.hasOrigin:
		// First record of the stream: anchor the origin at its window floor.
		s.hasOrigin = true
		s.origin = math.Floor(rec.t/s.opts.Window) * s.opts.Window
		w = 0
	case w < s.window:
		return fmt.Errorf("ingest: line %d: %w: timestamp %g belongs to window %d, currently folding window %d",
			s.lines, ErrOutOfOrder, rec.t, w, s.window)
	case w > s.window:
		// Seal the window under construction (when there is one) and emit
		// an empty snapshot for every skipped window. The empty windows are
		// emitted unconditionally — whether the cursor is mid-window,
		// resuming after a Flush, or the record that crossed the boundary
		// was dropped — so a consumer folding snapshots into a model clock
		// (EncodeSnapshot per window) stays aligned with the stream's
		// window grid: a quiet hour is still an hour.
		if gap := w - s.window; gap > int64(s.opts.MaxWindowGap)+1 {
			return fmt.Errorf("ingest: line %d: timestamp %g skips %d windows (MaxWindowGap %d)",
				s.lines, rec.t, gap-1, s.opts.MaxWindowGap)
		}
		for s.window < w {
			if err := s.seal(emit); err != nil {
				return err
			}
		}
	}

	srcIdx, ok, err := s.mapNode(rec.src)
	if err != nil {
		return fmt.Errorf("ingest: line %d: %w", s.lines, err)
	}
	if !ok {
		s.dropped++
		return nil
	}
	dstIdx, ok, err := s.mapNode(rec.dst)
	if err != nil {
		return fmt.Errorf("ingest: line %d: %w", s.lines, err)
	}
	if !ok {
		s.dropped++
		return nil
	}

	if s.cur == nil {
		s.cur = s.newSnapshot()
	}
	if s.cur.AddEdge(srcIdx, dstIdx) {
		s.edges++
	}
	if rec.x != nil && s.opts.F > 0 {
		copy(s.cur.X.Row(srcIdx), rec.x)
		copy(s.lastAttr[srcIdx*s.opts.F:(srcIdx+1)*s.opts.F], rec.x)
		s.haveAttr[srcIdx] = true
	}
	return nil
}

func (s *Stream) windowOf(t float64) (int64, error) {
	if !s.hasOrigin {
		return 0, nil
	}
	w := math.Floor((t - s.origin) / s.opts.Window)
	// Guard the float→int64 conversion: an absurd timestamp must become a
	// diagnostic, not an implementation-defined wraparound.
	if w > math.MaxInt64/2 || w < math.MinInt64/2 {
		return 0, fmt.Errorf("timestamp %g is out of range for the stream's window grid (origin %g, width %g)", t, s.origin, s.opts.Window)
	}
	return int64(w), nil
}

// mapNode resolves an external ID to an index, growing the mapping when
// allowed. ok=false means the record should be dropped (DropUnknown). Only
// an ID seen for the first time allocates (its map key).
func (s *Stream) mapNode(id []byte) (int, bool, error) {
	if idx, ok := s.nodes[string(id)]; ok {
		return idx, true, nil
	}
	if s.frozen || s.nextID >= s.opts.N {
		if s.opts.DropUnknown {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("%w: %q (universe %d, %d mapped)", ErrUnknownNode, id, s.opts.N, len(s.nodes))
	}
	idx := s.nextID
	s.nextID++
	s.nodes[string(id)] = idx
	return idx, true, nil
}

// newSnapshot starts the next window's snapshot, pre-filling carried
// attributes. Pooled mode reuses the last emitted snapshot and draws the
// attribute matrix from the tensor arena.
func (s *Stream) newSnapshot() *dyngraph.Snapshot {
	snap := s.spare
	s.spare = nil
	if snap == nil {
		snap = dyngraph.NewSnapshot(s.opts.N, 0)
	}
	if s.opts.F > 0 {
		if s.opts.Pooled {
			snap.X = tensor.Get(s.opts.N, s.opts.F)
		} else {
			snap.X = tensor.New(s.opts.N, s.opts.F)
		}
		if s.opts.CarryAttrs {
			for v := 0; v < s.opts.N; v++ {
				if s.haveAttr[v] {
					copy(snap.X.Row(v), s.lastAttr[v*s.opts.F:(v+1)*s.opts.F])
				}
			}
		}
	}
	return snap
}

// ReadSequence folds an entire edge stream into a Sequence (unpooled
// attribute buffers, safe to retain). Convenience for CLIs and tests; the
// serving layer folds incrementally instead.
func ReadSequence(r io.Reader, opts Options) (*dyngraph.Sequence, error) {
	opts.Pooled = false
	s, err := NewStream(opts)
	if err != nil {
		return nil, err
	}
	g := &dyngraph.Sequence{N: opts.N, F: opts.F}
	collect := func(snap *dyngraph.Snapshot) error {
		g.Snapshots = append(g.Snapshots, snap)
		return nil
	}
	if err := s.Fold(r, collect); err != nil {
		return nil, err
	}
	if err := s.Flush(collect); err != nil {
		return nil, err
	}
	return g, nil
}
