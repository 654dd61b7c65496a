package dyngraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// bruteUnion returns, for every node u, the sorted union of Out[u] and
// of the nodes whose Out lists hold u.
func bruteUnion(s *Snapshot) [][]int {
	union := make([]map[int]bool, s.N)
	for u := range union {
		union[u] = map[int]bool{}
	}
	for u, out := range s.Out {
		for _, v := range out {
			union[u][v] = true
			union[v][u] = true
		}
	}
	res := make([][]int, s.N)
	for u, set := range union {
		for w := range set {
			res[u] = append(res[u], w)
		}
		slices.Sort(res[u])
	}
	return res
}

// bruteInDegree counts, for every node v, the Out lists that hold v.
func bruteInDegree(s *Snapshot) []int {
	indeg := make([]int, s.N)
	for _, out := range s.Out {
		for _, v := range out {
			indeg[v]++
		}
	}
	return indeg
}

// checkNeighbors compares s's InDegree with want and its
// UndirectedNeighbors with the brute-force union of its Out lists. Four
// goroutines read the neighbours at once, so the memoised transpose they
// are read off is built by whichever reader comes first.
func checkNeighbors(s *Snapshot, want []int) error {
	for v := 0; v < s.N; v++ {
		if got := s.InDegree(v); got != want[v] {
			return fmt.Errorf("InDegree(%d) = %d, want %d", v, got, want[v])
		}
	}
	union := bruteUnion(s)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < s.N; u++ {
				if got := s.UndirectedNeighbors(u); !slices.Equal(got, union[u]) {
					errs[w] = fmt.Errorf("UndirectedNeighbors(%d) = %v, want %v", u, got, union[u])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkFull checks a full snapshot: its counts against its own Out lists,
// and Validate.
func checkFull(s *Snapshot) error {
	if err := checkNeighbors(s, bruteInDegree(s)); err != nil {
		return err
	}
	return (&Sequence{N: s.N, Snapshots: []*Snapshot{s}}).Validate()
}

// addRandomEdges adds up to k random edges to s.
func addRandomEdges(s *Snapshot, k int, rng *rand.Rand) {
	for i := 0; i < k; i++ {
		s.AddEdge(rng.Intn(s.N), rng.Intn(s.N))
	}
}

// TestInDegreeAndNeighborsMatchOut: InDegree, UndirectedNeighbors and
// Validate agree with a brute-force count and union from the Out lists on
// random snapshots, on recycled snapshots rebuilt with other edges, on
// clones (also after the clone gains edges the original does not), and
// on SampleNeighbors views with r below and above the largest degree,
// where InDegree is min(the sampled snapshot's in-degree, r). Its readers
// race to build each snapshot's transpose: run with -race in CI.
func TestInDegreeAndNeighborsMatchOut(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		s := NewSnapshot(n, 0)
		addRandomEdges(s, rng.Intn(n*n/2+1), rng)
		fail := func(what string, err error) bool {
			t.Logf("seed %d, %s: %v", seed, what, err)
			return false
		}
		if err := checkFull(s); err != nil {
			return fail("random", err)
		}

		c := s.Clone()
		if err := checkFull(c); err != nil {
			return fail("clone", err)
		}
		addRandomEdges(c, n, rng)
		if err := checkFull(c); err != nil {
			return fail("clone after AddEdge", err)
		}
		if err := checkFull(s); err != nil {
			return fail("original after its clone's AddEdge", err)
		}

		s.Recycle()
		if err := checkFull(s); err != nil {
			return fail("recycled", err)
		}
		addRandomEdges(s, rng.Intn(n*n/2+1), rng)
		if err := checkFull(s); err != nil {
			return fail("recycled and rebuilt", err)
		}

		indeg, maxDeg := bruteInDegree(s), 0
		for v := 0; v < n; v++ {
			maxDeg = max(maxDeg, len(s.Out[v]), indeg[v])
		}
		for _, r := range []int{max(maxDeg/2, 1), maxDeg, maxDeg + 1} {
			view := s.SampleNeighbors(r, rand.New(rand.NewSource(seed)))
			if r >= maxDeg && view != s {
				return fail(fmt.Sprintf("r=%d", r), fmt.Errorf("a view at r ≥ the largest degree %d is not the snapshot", maxDeg))
			}
			want := make([]int, n)
			for v := range want {
				want[v] = min(indeg[v], r)
				if len(view.Out[v]) != min(len(s.Out[v]), r) {
					return fail(fmt.Sprintf("view r=%d", r), fmt.Errorf("Out[%d] holds %d of %d", v, len(view.Out[v]), len(s.Out[v])))
				}
			}
			if err := checkNeighbors(view, want); err != nil {
				return fail(fmt.Sprintf("view r=%d", r), err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
