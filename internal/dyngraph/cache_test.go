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
		src, dst := s.EdgeLists()
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
	src, dst := s.EdgeLists()
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

// TestAdjTCSRTransposesOut: on a SampleNeighbors view, whose In lists are
// sampled apart from its Out lists, AdjTCSR is the transpose of Out, the
// lists AdjCSR reads, and not a CSR of the In lists: it is AdjCSR's T,
// the transpose tensor.NewCSR links to a CSR of the Out lists.
func TestAdjTCSRTransposesOut(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewSource(4))
	s := NewSnapshot(n, 0)
	for s.NumEdges() < 400 {
		s.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	v := s.SampleNeighbors(3, rand.New(rand.NewSource(5)))
	var inSrc, inDst []int
	for d, in := range v.In {
		for _, u := range in {
			inSrc, inDst = append(inSrc, u), append(inDst, d)
		}
	}
	fromIn := tensor.NewCSR(n, n, inDst, inSrc)
	src, dst := v.EdgeLists()
	if sameCSR(fromIn, tensor.NewCSR(n, n, dst, src)) {
		t.Fatal("the view's In lists are the transpose of its Out lists; the check below would prove nothing")
	}
	if !sameCSR(v.AdjTCSR(), tensor.NewCSR(n, n, dst, src)) {
		t.Fatal("AdjTCSR of a sampled view is not the transpose of its Out lists")
	}
	if !sameCSR(v.AdjCSR(), tensor.NewCSR(n, n, src, dst)) {
		t.Fatal("AdjCSR of a sampled view is not its Out lists")
	}
	if v.AdjCSR().T != v.AdjTCSR() || !sameCSR(v.AdjCSR().T, tensor.NewCSR(n, n, src, dst).T) {
		t.Fatal("AdjCSR's T on a sampled view is not the transpose of its Out lists")
	}
}
