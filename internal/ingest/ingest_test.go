package ingest

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

func readAll(t *testing.T, input string, opts Options) *dyngraph.Sequence {
	t.Helper()
	g, err := ReadSequence(strings.NewReader(input), opts)
	if err != nil {
		t.Fatalf("ReadSequence: %v", err)
	}
	return g
}

func TestCSVBasicWindows(t *testing.T) {
	in := "a,b,0\nb,c,0\na,c,1\nc,a,3\n"
	g := readAll(t, in, Options{N: 4, Format: FormatCSV})
	if g.T() != 4 {
		t.Fatalf("T = %d, want 4 (windows 0..3)", g.T())
	}
	// First-seen order: a=0, b=1, c=2.
	if !g.At(0).HasEdge(0, 1) || !g.At(0).HasEdge(1, 2) {
		t.Fatal("window 0 edges wrong")
	}
	if !g.At(1).HasEdge(0, 2) {
		t.Fatal("window 1 edge wrong")
	}
	if g.At(2).NumEdges() != 0 {
		t.Fatal("gap window 2 should be empty")
	}
	if !g.At(3).HasEdge(2, 0) {
		t.Fatal("window 3 edge wrong")
	}
}

func TestCSVHeaderAndComments(t *testing.T) {
	in := "# temporal edges\nsrc,dst,t\na,b,0\n\nb,a,0\n"
	g := readAll(t, in, Options{N: 2})
	if g.T() != 1 || g.At(0).NumEdges() != 2 {
		t.Fatalf("got T=%d edges=%d, want 1/2", g.T(), g.At(0).NumEdges())
	}
}

func TestNDJSONWithAttributes(t *testing.T) {
	in := `{"src":"a","dst":"b","t":0,"x":[1.5,2.5]}
{"src":"b","dst":"a","t":0}
{"src":"a","dst":"b","t":1,"x":[3,4]}
`
	g := readAll(t, in, Options{N: 2, F: 2, CarryAttrs: true})
	if g.T() != 2 {
		t.Fatalf("T = %d, want 2", g.T())
	}
	if got := g.At(0).X.At(0, 0); got != 1.5 {
		t.Fatalf("window 0 attr = %v, want 1.5", got)
	}
	// Carry: window 1 starts from a's last observation, then the t=1
	// record overwrites it.
	if got := g.At(1).X.At(0, 1); got != 4 {
		t.Fatalf("window 1 attr = %v, want 4", got)
	}
	// b never reported attributes; stays zero.
	if got := g.At(1).X.At(1, 0); got != 0 {
		t.Fatalf("unobserved node attr = %v, want 0", got)
	}
}

func TestNDJSONNumericIDs(t *testing.T) {
	in := `{"src":7,"dst":9,"t":0}
{"src":"7","dst":9,"t":0}
`
	g := readAll(t, in, Options{N: 4})
	// "7" (string) and 7 (number) are the same external ID.
	if g.At(0).NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (dup via string/number ID)", g.At(0).NumEdges())
	}
}

func TestWindowWidthBuckets(t *testing.T) {
	in := "a,b,10.0\nb,c,14.9\na,c,15.1\n"
	g := readAll(t, in, Options{N: 3, Window: 5})
	if g.T() != 2 {
		t.Fatalf("T = %d, want 2 (width-5 windows)", g.T())
	}
	if g.At(0).NumEdges() != 2 || g.At(1).NumEdges() != 1 {
		t.Fatalf("window edge counts %d/%d, want 2/1", g.At(0).NumEdges(), g.At(1).NumEdges())
	}
}

func TestOutOfOrderTimestampErrors(t *testing.T) {
	in := "a,b,5\nb,c,6\nc,a,4\n"
	_, err := ReadSequence(strings.NewReader(in), Options{N: 3})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestDuplicateEdgesFold(t *testing.T) {
	in := "a,b,0\na,b,0\na,b,0\nb,a,0\n"
	s, err := NewStream(Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []*dyngraph.Snapshot
	collect := func(snap *dyngraph.Snapshot) error { got = append(got, snap); return nil }
	if err := s.Fold(strings.NewReader(in), collect); err != nil {
		t.Fatalf("Fold: %v", err)
	}
	if err := s.Flush(collect); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(got) != 1 || got[0].NumEdges() != 2 {
		t.Fatalf("got %d snapshots / %d edges, want 1/2", len(got), got[0].NumEdges())
	}
	if s.Edges() != 2 || s.Records() != 4 {
		t.Fatalf("counters: edges=%d records=%d, want 2/4", s.Edges(), s.Records())
	}
}

func TestUnknownNodePolicy(t *testing.T) {
	in := "a,b,0\nc,a,0\n"
	if _, err := ReadSequence(strings.NewReader(in), Options{N: 2}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode when capacity is exhausted", err)
	}
	g, err := ReadSequence(strings.NewReader(in), Options{N: 2, DropUnknown: true})
	if err != nil {
		t.Fatalf("DropUnknown: %v", err)
	}
	if g.At(0).NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 after dropping the unknown-src record", g.At(0).NumEdges())
	}

	// Pinned mapping freezes the universe even with spare capacity.
	pinned := Options{N: 5, Nodes: map[string]int{"a": 3, "b": 1}}
	g, err = ReadSequence(strings.NewReader("a,b,0\n"), pinned)
	if err != nil {
		t.Fatalf("pinned: %v", err)
	}
	if !g.At(0).HasEdge(3, 1) {
		t.Fatal("pinned mapping not honoured")
	}
	if _, err = ReadSequence(strings.NewReader("z,b,0\n"), pinned); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode for an ID outside the pinned map", err)
	}
}

func TestGzipInput(t *testing.T) {
	plain := "a,b,0\nb,a,1\n"
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(plain)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := ReadSequence(&buf, Options{N: 2})
	if err != nil {
		t.Fatalf("ReadSequence(gzip): %v", err)
	}
	if g.T() != 2 {
		t.Fatalf("T = %d, want 2", g.T())
	}
}

// TestResumableFold: one Stream across several Fold calls behaves like a
// single concatenated stream, and Flush seals the tail window so a
// session's forecast can run on everything ingested so far.
func TestResumableFold(t *testing.T) {
	s, err := NewStream(Options{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sealed []*dyngraph.Snapshot
	collect := func(snap *dyngraph.Snapshot) error { sealed = append(sealed, snap); return nil }

	if err := s.Fold(strings.NewReader("a,b,0\n"), collect); err != nil {
		t.Fatalf("Fold 1: %v", err)
	}
	if len(sealed) != 0 {
		t.Fatal("window sealed before its boundary was crossed")
	}
	// Second chunk keeps filling window 0, then crosses into window 1.
	if err := s.Fold(strings.NewReader("b,c,0\nc,a,1\n"), collect); err != nil {
		t.Fatalf("Fold 2: %v", err)
	}
	if len(sealed) != 1 || sealed[0].NumEdges() != 2 {
		t.Fatalf("after chunk 2: %d sealed, want window 0 with 2 edges", len(sealed))
	}
	if err := s.Flush(collect); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(sealed) != 2 || !sealed[1].HasEdge(2, 0) {
		t.Fatal("Flush did not seal the in-progress window")
	}
	// After a Flush, the sealed window is closed: same-window records are
	// out of order, later windows resume.
	if err := s.Fold(strings.NewReader("a,b,1\n"), collect); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("post-flush same-window record: %v, want ErrOutOfOrder", err)
	}
	// Resuming at window 5 emits empty snapshots for the quiet windows
	// 2..4 — the stream's clock never skips.
	if err := s.Fold(strings.NewReader("a,b,5\n"), collect); err != nil {
		t.Fatalf("post-flush later record: %v", err)
	}
	if len(sealed) != 5 {
		t.Fatalf("post-flush resume sealed %d snapshots, want 5 (windows 0,1 + empties 2..4)", len(sealed))
	}
	for w := 2; w <= 4; w++ {
		if sealed[w].NumEdges() != 0 {
			t.Fatalf("gap window %d not empty", w)
		}
	}
}

// TestDroppedBoundaryRecordKeepsClock: when the record that crosses a
// window boundary is itself dropped (DropUnknown), the skipped windows
// are still emitted as empty snapshots — a dropped edge must not delete
// time from the stream's window grid.
func TestDroppedBoundaryRecordKeepsClock(t *testing.T) {
	in := "a,b,0\nzz,b,3\na,b,5\n"
	g, err := ReadSequence(strings.NewReader(in), Options{N: 2, DropUnknown: true})
	if err != nil {
		t.Fatalf("ReadSequence: %v", err)
	}
	if g.T() != 6 {
		t.Fatalf("T = %d, want 6 (windows 0..5, dropped record at 3 keeps the clock)", g.T())
	}
	for w := 1; w <= 4; w++ {
		if g.At(w).NumEdges() != 0 {
			t.Fatalf("window %d should be empty", w)
		}
	}
	if g.At(0).NumEdges() != 1 || g.At(5).NumEdges() != 1 {
		t.Fatal("edge windows wrong")
	}
}

// TestPerFoldCSVHeaders: chunked uploads where every chunk carries its
// own header row parse cleanly — the header check is per input, not per
// stream.
func TestPerFoldCSVHeaders(t *testing.T) {
	s, err := NewStream(Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(*dyngraph.Snapshot) error { return nil }
	if err := s.Fold(strings.NewReader("src,dst,t\na,b,0\n"), emit); err != nil {
		t.Fatalf("chunk 1: %v", err)
	}
	if err := s.Fold(strings.NewReader("src,dst,t\nb,a,1\n"), emit); err != nil {
		t.Fatalf("chunk 2 with its own header: %v", err)
	}
	if s.Records() != 2 || s.Edges() != 2 {
		t.Fatalf("records=%d edges=%d, want 2/2", s.Records(), s.Edges())
	}
	// A corrupt record on a chunk boundary must error loudly — only an
	// exact repeat of the stream's header line is skipped.
	if err := s.Fold(strings.NewReader("alice,bob,17x0\n"), emit); err == nil {
		t.Fatal("corrupt chunk-first record was silently swallowed as a header")
	}
}

// TestPendingWindowAndDiscard covers the teardown hook: a half-built
// pooled window is visible via PendingWindow and recycled by
// DiscardPending, keeping the arena balanced.
func TestPendingWindowAndDiscard(t *testing.T) {
	before := tensor.ReadPoolStats()
	s, err := NewStream(Options{N: 3, F: 1, Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.PendingWindow() {
		t.Fatal("fresh stream claims a pending window")
	}
	emit := func(snap *dyngraph.Snapshot) error { snap.Recycle(); return nil }
	if err := s.Fold(strings.NewReader("a,b,0,1.5\n"), emit); err != nil {
		t.Fatalf("Fold: %v", err)
	}
	if !s.PendingWindow() {
		t.Fatal("open window not reported pending")
	}
	s.DiscardPending()
	if s.PendingWindow() {
		t.Fatal("window still pending after discard")
	}
	s.DiscardPending() // idempotent
	after := tensor.ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("discarded pending window leaked: %d gets vs %d puts", gets, puts)
	}
}

// TestPooledSnapshotsBalanceArena: the pooled mode's attribute buffers
// come from and return to the tensor arena when the consumer recycles
// every snapshot — the serving layer's steady state.
func TestPooledSnapshotsBalanceArena(t *testing.T) {
	in := "a,b,0,1.0\nb,c,1,2.0\nc,a,2,3.0\n"
	run := func() {
		s, err := NewStream(Options{N: 3, F: 1, Pooled: true})
		if err != nil {
			t.Fatal(err)
		}
		emit := func(snap *dyngraph.Snapshot) error { snap.Recycle(); return nil }
		if err := s.Fold(strings.NewReader(in), emit); err != nil {
			t.Fatalf("Fold: %v", err)
		}
		if err := s.Flush(emit); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	run() // warm-up
	before := tensor.ReadPoolStats()
	run()
	after := tensor.ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("pooled ingest leaked: %d gets vs %d puts", gets, puts)
	}
}

func TestMalformedInputs(t *testing.T) {
	cases := map[string]string{
		"too few fields":     "a,b\n",
		"bad timestamp":      "a,b,xyz\nq,r,s\n", // second line so header skip can't mask it
		"nan timestamp":      "a,b,NaN\n",
		"bad attr count":     "a,b,0,1.0\n",
		"empty src":          ",b,0\n",
		"bad json":           "{\"src\":}\n",
		"json missing t":     `{"src":"a","dst":"b"}` + "\n",
		"json unknown field": `{"src":"a","dst":"b","t":0,"weight":2}` + "\n",
		"json trailing":      `{"src":"a","dst":"b","t":0}{"src":"b","dst":"a","t":0}` + "\n",
		"json bad attr len":  `{"src":"a","dst":"b","t":0,"x":[1,2,3]}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadSequence(strings.NewReader(in), Options{N: 4, F: 0}); err == nil {
			t.Errorf("%s: expected an error for %q", name, in)
		}
	}
}

func TestWindowGapGuard(t *testing.T) {
	in := "a,b,0\nb,a,1e12\n"
	_, err := ReadSequence(strings.NewReader(in), Options{N: 2, MaxWindowGap: 100})
	if err == nil {
		t.Fatal("expected a gap-guard error for an absurd timestamp jump")
	}
}

func TestDeterministicFold(t *testing.T) {
	in := "a,b,0,0.5\nb,c,0.7,1.5\nc,a,2,2.5\na,c,2.9,3.5\n"
	opts := Options{N: 3, F: 1, CarryAttrs: true}
	g1 := readAll(t, in, opts)
	g2 := readAll(t, in, opts)
	if g1.T() != g2.T() {
		t.Fatal("nondeterministic window count")
	}
	for tt := 0; tt < g1.T(); tt++ {
		a, b := g1.At(tt), g2.At(tt)
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("window %d: edge counts differ", tt)
		}
		for i := range a.X.Data {
			if a.X.Data[i] != b.X.Data[i] {
				t.Fatalf("window %d: attrs differ", tt)
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewStream(Options{N: 0}); err == nil {
		t.Fatal("N=0 must be rejected")
	}
	if _, err := NewStream(Options{N: 2, F: -1}); err == nil {
		t.Fatal("negative F must be rejected")
	}
	if _, err := NewStream(Options{N: 2, Nodes: map[string]int{"a": 5}}); err == nil {
		t.Fatal("pinned index outside the universe must be rejected")
	}
}

// csvWindow is one bench-shaped CSV window at timestamp t: 100 distinct
// edges among the nodes n0..n19, two attribute columns each.
func csvWindow(t int) []byte {
	var b []byte
	for e := 0; e < 100; e++ {
		u := e % 20
		v := (u + 1 + e/20) % 20
		b = fmt.Appendf(b, "n%d,n%d,%d,%.4f,%.4f\n", u, v, t, float64(e)/10, -float64(e)/7)
	}
	return b
}

// TestFoldAllocs pins the steady-state cost of folding: once a Pooled
// Stream has mapped every node and grown its snapshot's neighbour lists,
// Fold+Flush of a 100-edge window allocates only per call (the gzip sniff's
// reader and the line scanner), never per record.
func TestFoldAllocs(t *testing.T) {
	const runs = 50
	bodies := make([][]byte, runs+2)
	for k := range bodies {
		bodies[k] = csvWindow(k)
	}
	s, err := NewStream(Options{N: 20, F: 2, CarryAttrs: true, Pooled: true})
	if err != nil {
		t.Fatal(err)
	}
	emit := func(snap *dyngraph.Snapshot) error { snap.Recycle(); return nil }
	var r bytes.Reader
	k := 0
	fold := func() {
		r.Reset(bodies[k])
		k++
		err := s.Fold(&r, emit)
		if err == nil {
			err = s.Flush(emit)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fold() // warm: map every node and grow the neighbour lists
	if got := testing.AllocsPerRun(runs, fold); got > 10 {
		t.Fatalf("Fold+Flush of a 100-edge window allocates %.1f objects, want <= 10", got)
	}
	if s.Edges() != int64(100*k) {
		t.Fatalf("folded %d edges over %d windows, want %d", s.Edges(), k, 100*k)
	}
}

// TestPooledStreamReusesSnapshot: a Pooled Stream hands emit the same
// snapshot for every window, and the reused snapshot starts each window
// empty: no edge of the previous window, and attributes only as
// CarryAttrs says. The consumer here never recycles; the Stream reclaims
// each snapshot itself, so the arena still balances.
func TestPooledStreamReusesSnapshot(t *testing.T) {
	// Window 0: a->b with x[a]; window 1: a gap; window 2: b->c with x[b].
	in := "a,b,0,1.5\nb,c,2,2.5\n"
	for _, carry := range []bool{false, true} {
		t.Run(fmt.Sprintf("carry=%v", carry), func(t *testing.T) {
			before := tensor.ReadPoolStats()
			s, err := NewStream(Options{N: 3, F: 1, CarryAttrs: carry, Pooled: true})
			if err != nil {
				t.Fatal(err)
			}
			var seen []*dyngraph.Snapshot
			var edges [][][2]int
			var attrs [][]float64
			emit := func(snap *dyngraph.Snapshot) error {
				seen = append(seen, snap)
				edges = append(edges, snap.Edges())
				attrs = append(attrs, append([]float64(nil), snap.X.Data...))
				return nil
			}
			if err := s.Fold(strings.NewReader(in), emit); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(emit); err != nil {
				t.Fatal(err)
			}
			if len(seen) != 3 || seen[1] != seen[0] || seen[2] != seen[0] {
				t.Fatalf("emit saw %d windows through %v, want 3 through one snapshot", len(seen), seen)
			}
			wantEdges := [][][2]int{{{0, 1}}, {}, {{1, 2}}}
			wantAttrs := [][]float64{{1.5, 0, 0}, {0, 0, 0}, {0, 2.5, 0}}
			if carry {
				wantAttrs = [][]float64{{1.5, 0, 0}, {1.5, 0, 0}, {1.5, 2.5, 0}}
			}
			for w := range seen {
				if fmt.Sprint(edges[w]) != fmt.Sprint(wantEdges[w]) {
					t.Errorf("window %d edges %v, want %v", w, edges[w], wantEdges[w])
				}
				if fmt.Sprint(attrs[w]) != fmt.Sprint(wantAttrs[w]) {
					t.Errorf("window %d attrs %v, want %v", w, attrs[w], wantAttrs[w])
				}
			}
			after := tensor.ReadPoolStats()
			if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
				t.Fatalf("pooled stream leaked: %d gets vs %d puts", gets, puts)
			}
		})
	}
}
