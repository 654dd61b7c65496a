package dyngraph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vrdag/internal/tensor"
)

// TestAdjCSRCacheInvalidation: the memoised CSR forms must reflect every
// mutation, and repeated calls on an unchanged snapshot must return the
// same object (the cache working at all).
func TestAdjCSRCacheInvalidation(t *testing.T) {
	s := NewSnapshot(4, 0)
	s.AddEdge(0, 1)
	a := s.AdjCSR()
	if a.NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1", a.NNZ())
	}
	if s.AdjCSR() != a {
		t.Fatal("unchanged snapshot rebuilt its CSR")
	}
	if s.AdjTCSR() != s.AdjTCSR() {
		t.Fatal("unchanged snapshot rebuilt its transposed CSR")
	}

	s.AddEdge(1, 2)
	b := s.AdjCSR()
	if b == a {
		t.Fatal("AddEdge did not invalidate the CSR cache")
	}
	if b.NNZ() != 2 || dense(b).At(1, 2) != 1 {
		t.Fatal("cached CSR missing the new edge")
	}
	bt := s.AdjTCSR()
	if dense(bt).At(2, 1) != 1 {
		t.Fatal("cached transposed CSR missing the new edge")
	}

	s.RemoveEdge(0, 1)
	c := s.AdjCSR()
	if c == b || c.NNZ() != 1 || dense(c).At(0, 1) != 0 {
		t.Fatal("RemoveEdge did not invalidate the CSR cache")
	}

	// Duplicate and self-loop inserts are no-ops and must keep the cache.
	before := s.AdjCSR()
	s.AddEdge(1, 2) // duplicate
	s.AddEdge(3, 3) // self-loop
	if s.AdjCSR() != before {
		t.Fatal("no-op AddEdge invalidated the cache")
	}
}

// TestAdjCSRConcurrentReaders: metrics requests score fresh samples
// against a shared reference sequence, so many goroutines hit AdjCSR and
// AdjTCSR on the same snapshot at once. Run with -race in CI.
func TestAdjCSRConcurrentReaders(t *testing.T) {
	s := NewSnapshot(64, 0)
	for u := 0; u < 63; u++ {
		s.AddEdge(u, u+1)
		s.AddEdge(u+1, (u*7)%64)
	}
	want := s.NumEdges()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := s.AdjCSR().NNZ(); got != want {
					t.Errorf("AdjCSR nnz = %d, want %d", got, want)
					return
				}
				if got := s.AdjTCSR().NNZ(); got != want {
					t.Errorf("AdjTCSR nnz = %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sameCSR reports whether two CSR matrices hold the same entries in the
// same order.
func sameCSR(a, b *tensor.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColIdx, b.ColIdx)
}

// TestRecycledCSRRebuildsInPlace: after Recycle a snapshot rebuilds A and
// Aᵀ into the arrays of its previous forms, and each equals tensor.NewCSR
// of its EdgeLists in that orientation, for a timestep with fewer edges
// than the last and one with more (which outgrows them). The two forms are
// one linked pair, and rebuilding a timestep the kept arrays hold
// allocates nothing.
func TestRecycledCSRRebuildsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 40
	s := NewSnapshot(n, 0)
	for _, edges := range []int{300, 120, 200, 500} {
		var kept [2]*tensor.CSR
		var keptCols [2]*int
		if s.NumEdges() > 0 {
			kept = [2]*tensor.CSR{s.AdjCSR(), s.AdjTCSR()}
			keptCols = [2]*int{&kept[0].ColIdx[0], &kept[1].ColIdx[0]}
			s.Recycle()
		}
		for s.NumEdges() < edges {
			s.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		if s.AdjCSR().T != s.AdjTCSR() || s.AdjTCSR().T != s.AdjCSR() {
			t.Fatalf("%d edges: AdjCSR and AdjTCSR are not each other's T", edges)
		}
		src, dst := s.EdgeLists(nil, nil, 0)
		for k, c := range [2]*tensor.CSR{s.AdjCSR(), s.AdjTCSR()} {
			want := tensor.NewCSR(n, n, src, dst)
			if k == 1 {
				want = tensor.NewCSR(n, n, dst, src)
			}
			if !sameCSR(c, want) {
				t.Fatalf("%d edges, form %d: the rebuilt CSR differs from NewCSR of EdgeLists", edges, k)
			}
			if kept[k] != nil && edges < cap(kept[k].ColIdx) && (c != kept[k] || &c.ColIdx[0] != keptCols[k]) {
				t.Fatalf("%d edges, form %d: not rebuilt into the recycled form's arrays", edges, k)
			}
		}
	}
	src, dst := s.EdgeLists(nil, nil, 0)
	allocs := testing.AllocsPerRun(5, func() {
		s.Recycle()
		for k := range src {
			s.AddEdge(src[k], dst[k])
		}
		s.AdjTCSR()
	})
	if allocs != 0 {
		t.Fatalf("rebuilding a recycled timestep's CSR pair allocates %.1f objects, want 0", allocs)
	}
}

// TestAdjTCSRTransposesOut: AdjTCSR is the transpose of the Out lists,
// the lists AdjCSR reads: AdjCSR's T, the transpose tensor.NewCSR links to
// a CSR of them. On a full snapshot its row v holds InDegree(v) sources;
// on a SampleNeighbors view, whose in-degrees are capped apart from its
// sampled Out lists, it is still the transpose of the view's Out lists.
func TestAdjTCSRTransposesOut(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(4))
	s := NewSnapshot(n, 0)
	for s.NumEdges() < 400 {
		s.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	v := s.SampleNeighbors(3, rand.New(rand.NewSource(5)))
	if v == s || v.NumEdges() >= s.NumEdges() {
		t.Fatal("the view samples nothing; the checks below would prove nothing")
	}
	for _, g := range []*Snapshot{s, v} {
		src, dst := g.EdgeLists(nil, nil, 0)
		if !sameCSR(g.AdjTCSR(), tensor.NewCSR(n, n, dst, src)) {
			t.Fatal("AdjTCSR is not the transpose of the Out lists")
		}
		if !sameCSR(g.AdjCSR(), tensor.NewCSR(n, n, src, dst)) {
			t.Fatal("AdjCSR is not the Out lists")
		}
		if g.AdjCSR().T != g.AdjTCSR() || !sameCSR(g.AdjCSR().T, tensor.NewCSR(n, n, src, dst).T) {
			t.Fatal("AdjCSR's T is not the transpose of the Out lists")
		}
	}
	at := s.AdjTCSR()
	for d := 0; d < n; d++ {
		if got := at.RowPtr[d+1] - at.RowPtr[d]; got != s.InDegree(d) {
			t.Fatalf("row %d of AdjTCSR holds %d sources, InDegree %d", d, got, s.InDegree(d))
		}
	}
}
