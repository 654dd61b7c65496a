package walker

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vrdag/internal/dyngraph"
)

func seq(t *testing.T) *dyngraph.Sequence {
	t.Helper()
	g := dyngraph.NewSequence(6, 0, 3)
	g.At(0).AddEdge(0, 1)
	g.At(0).AddEdge(1, 2)
	g.At(1).AddEdge(2, 3)
	g.At(1).AddEdge(1, 2)
	g.At(2).AddEdge(3, 4)
	g.At(2).AddEdge(4, 5)
	return g
}

func TestBuildIndex(t *testing.T) {
	ix := BuildIndex(seq(t))
	if ix.M() != 6 {
		t.Fatalf("M = %d", ix.M())
	}
	if ix.N != 6 || ix.T != 3 {
		t.Fatalf("N=%d T=%d", ix.N, ix.T)
	}
	// edges sorted by time
	for i := 1; i < len(ix.Edges); i++ {
		if ix.Edges[i].T < ix.Edges[i-1].T {
			t.Fatal("edges must be time-sorted")
		}
	}
}

func TestRandomEdgeEmptyGraph(t *testing.T) {
	ix := BuildIndex(dyngraph.NewSequence(3, 0, 2))
	if _, err := ix.RandomEdge(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty graph must error")
	}
}

func TestWalkTimeMonotone(t *testing.T) {
	ix := BuildIndex(seq(t))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		w := ix.walk(5, walkNondecreasing, rng)
		for j := 1; j < len(w); j++ {
			if w[j].T < w[j-1].T {
				t.Fatalf("non-monotone walk times: %v", w)
			}
			if w[j].U != w[j-1].V {
				t.Fatalf("walk not connected: %v", w)
			}
		}
	}
}

func TestWalkStrictTimeValidity(t *testing.T) {
	ix := BuildIndex(seq(t))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		w := ix.walk(5, walkStrict, rng)
		for j := 1; j < len(w); j++ {
			if w[j].T <= w[j-1].T {
				t.Fatalf("strict walk must have strictly increasing times: %v", w)
			}
		}
	}
}

func TestWalkRespectsMaxLen(t *testing.T) {
	// A long chain graph allows long walks, so maxLen must bind.
	g := dyngraph.NewSequence(20, 0, 1)
	for i := 0; i+1 < 20; i++ {
		g.At(0).AddEdge(i, i+1)
	}
	ix := BuildIndex(g)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		if w := ix.walk(3, walkNondecreasing, rng); len(w) > 3 {
			t.Fatalf("walk length %d exceeds max 3", len(w))
		}
	}
}

// TestTransitionModelWalks checks TIGGER's first-order walks, the clamped
// mode: any out-edge of the head, its time raised to the current one.
func TestTransitionModelWalks(t *testing.T) {
	ix := BuildIndex(seq(t))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		w := ix.walk(4, walkClamped, rng)
		if len(w) == 0 {
			t.Fatal("transition walk must start somewhere")
		}
		for j := 1; j < len(w); j++ {
			if w[j].U != w[j-1].V {
				t.Fatalf("transition walk not connected: %v", w)
			}
			if w[j].T < w[j-1].T {
				t.Fatalf("clamped times must be monotone: %v", w)
			}
		}
	}
}

func TestAssembleClampsTimes(t *testing.T) {
	walks := [][]TemporalEdge{{{U: 0, V: 1, T: -5}, {U: 1, V: 2, T: 99}}}
	g := Assemble(3, 2, walks)
	if !g.At(0).HasEdge(0, 1) {
		t.Fatal("negative time must clamp to snapshot 0")
	}
	if !g.At(1).HasEdge(1, 2) {
		t.Fatal("overflow time must clamp to last snapshot")
	}
}

// Property: every edge produced by any walk exists in the source graph at
// the walk's timestamp.
func TestWalkEdgesAreReal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dyngraph.NewSequence(8, 0, 4)
		for tt := 0; tt < 4; tt++ {
			for e := 0; e < 10; e++ {
				g.At(tt).AddEdge(rng.Intn(8), rng.Intn(8))
			}
		}
		ix := BuildIndex(g)
		if ix.M() == 0 {
			return true
		}
		for i := 0; i < 20; i++ {
			for _, e := range ix.walk(6, walkNondecreasing, rng) {
				if !g.At(e.T).HasEdge(e.U, e.V) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
