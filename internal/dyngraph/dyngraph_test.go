package dyngraph

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vrdag/internal/tensor"
)

func TestAddEdgeBasics(t *testing.T) {
	s := NewSnapshot(4, 0)
	if !s.AddEdge(0, 1) {
		t.Fatal("first insert must succeed")
	}
	if s.AddEdge(0, 1) {
		t.Fatal("duplicate insert must be rejected")
	}
	if s.AddEdge(2, 2) {
		t.Fatal("self-loop must be rejected")
	}
	if s.AddEdge(-1, 0) || s.AddEdge(0, 9) {
		t.Fatal("out-of-range must be rejected")
	}
	if s.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", s.NumEdges())
	}
	if !s.HasEdge(0, 1) || s.HasEdge(1, 0) {
		t.Fatal("HasEdge must respect direction")
	}
}

func TestRemoveEdge(t *testing.T) {
	s := NewSnapshot(3, 0)
	s.AddEdge(0, 1)
	s.AddEdge(0, 2)
	if !s.RemoveEdge(0, 1) {
		t.Fatal("remove existing edge failed")
	}
	if s.RemoveEdge(0, 1) {
		t.Fatal("double remove must fail")
	}
	if s.NumEdges() != 1 || s.HasEdge(0, 1) || !s.HasEdge(0, 2) {
		t.Fatal("inconsistent state after removal")
	}
	if s.InDegree(1) != 0 || s.InDegree(2) != 1 {
		t.Fatal("in-degree not updated on removal")
	}
}

func TestDegreesAndEdges(t *testing.T) {
	s := NewSnapshot(4, 0)
	s.AddEdge(1, 0)
	s.AddEdge(1, 2)
	s.AddEdge(3, 2)
	if s.OutDegree(1) != 2 || s.InDegree(2) != 2 || s.OutDegree(0) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
	edges := s.Edges()
	want := [][2]int{{1, 0}, {1, 2}, {3, 2}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
	src, dst := s.EdgeLists(nil, nil, 0)
	if len(src) != 3 || src[0] != 1 || dst[2] != 2 {
		t.Fatalf("EdgeLists = %v %v", src, dst)
	}
}

// dense materialises a CSR matrix as a dense one.
func dense(c *tensor.CSR) *tensor.Matrix {
	out := tensor.New(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			out.Data[i*c.Cols+c.ColIdx[p]]++
		}
	}
	return out
}

func TestAdjCSRMatchesEdges(t *testing.T) {
	s := NewSnapshot(3, 0)
	s.AddEdge(0, 1)
	s.AddEdge(2, 0)
	a := dense(s.AdjCSR())
	if a.At(0, 1) != 1 || a.At(2, 0) != 1 || a.Sum() != 2 {
		t.Fatalf("AdjCSR dense = %v", a)
	}
	at := dense(s.AdjTCSR())
	if at.At(1, 0) != 1 || at.At(0, 2) != 1 || at.Sum() != 2 {
		t.Fatalf("AdjTCSR dense = %v", at)
	}
}

func TestUndirectedNeighborsMerged(t *testing.T) {
	s := NewSnapshot(5, 0)
	s.AddEdge(0, 1)
	s.AddEdge(2, 0)
	s.AddEdge(0, 3)
	s.AddEdge(3, 0) // reciprocal: 3 must appear once
	got := s.UndirectedNeighbors(0)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("UndirectedNeighbors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UndirectedNeighbors = %v, want %v", got, want)
		}
	}
}

func TestSnapshotCloneIndependent(t *testing.T) {
	s := NewSnapshot(3, 2)
	s.AddEdge(0, 1)
	s.X.Set(0, 0, 5)
	c := s.Clone()
	c.AddEdge(1, 2)
	c.X.Set(0, 0, 9)
	if s.NumEdges() != 1 || s.X.At(0, 0) != 5 {
		t.Fatal("Clone must not share state")
	}
}

func TestSequenceValidate(t *testing.T) {
	g := NewSequence(4, 2, 3)
	g.At(0).AddEdge(0, 1)
	g.At(2).AddEdge(3, 0)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
	// corrupt: an in-degree count the Out lists do not back
	g.At(0).indeg[1] = 0
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must detect a wrong in-degree count")
	}
}

func TestSequenceTotals(t *testing.T) {
	g := NewSequence(3, 0, 2)
	g.At(0).AddEdge(0, 1)
	g.At(1).AddEdge(0, 1)
	g.At(1).AddEdge(1, 2)
	if g.TotalTemporalEdges() != 3 {
		t.Fatalf("TotalTemporalEdges = %d", g.TotalTemporalEdges())
	}
	if g.T() != 2 {
		t.Fatalf("T = %d", g.T())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewSequence(10, 3, 4)
	for tt := 0; tt < 4; tt++ {
		s := g.At(tt)
		for k := 0; k < 15; k++ {
			s.AddEdge(rng.Intn(10), rng.Intn(10))
		}
		for i := 0; i < 10; i++ {
			for j := 0; j < 3; j++ {
				s.X.Set(i, j, rng.NormFloat64())
			}
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != g.N || got.F != g.F || got.T() != g.T() {
		t.Fatalf("meta mismatch: %d %d %d", got.N, got.F, got.T())
	}
	for tt := 0; tt < 4; tt++ {
		a, b := g.At(tt), got.At(tt)
		if a.NumEdges() != b.NumEdges() {
			t.Fatalf("t=%d edges %d vs %d", tt, a.NumEdges(), b.NumEdges())
		}
		for u := 0; u < 10; u++ {
			for _, v := range a.Out[u] {
				if !b.HasEdge(u, v) {
					t.Fatalf("t=%d missing edge %d->%d after round-trip", tt, u, v)
				}
			}
		}
		if !a.X.Equal(b.X, 1e-9) {
			t.Fatalf("t=%d attributes differ", tt)
		}
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"bogus header\nmeta 1 1 1\n",
		"vrdag-graph 1\n",
		"vrdag-graph 1\nmeta 2 0 1\ne 5 0 1\n",     // t out of range
		"vrdag-graph 1\nmeta 2 0 1\nz 0 0 1\n",     // unknown record
		"vrdag-graph 1\nmeta 2 0 1\nx 0 0 1.0\n",   // attrs in unattributed graph
		"vrdag-graph 1\nmeta 2 1 1\nx 0 0 1.0 2\n", // too many values
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("case %d: expected error for %q", i, c)
		}
	}
}

// Property: after any sequence of random insertions and deletions, the
// snapshot stays internally consistent (sorted lists, edge and in-degree
// counts) and its transpose's rows are sorted.
func TestSnapshotInvariantUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		s := NewSnapshot(n, 0)
		for op := 0; op < 100; op++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Float64() < 0.7 {
				s.AddEdge(u, v)
			} else {
				s.RemoveEdge(u, v)
			}
		}
		g := &Sequence{N: n, F: 0, Snapshots: []*Snapshot{s}}
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		at := s.AdjTCSR()
		for u := 0; u < n; u++ {
			if !sort.IntsAreSorted(at.ColIdx[at.RowPtr[u]:at.RowPtr[u+1]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
