package dyngraph

import (
	"sync"
	"testing"
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
