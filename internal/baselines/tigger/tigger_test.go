package tigger

import (
	"testing"

	"vrdag/internal/dyngraph"
)

// cycle returns t snapshots of the directed 3-cycle 0→1→2→0: every node
// has a successor, so every TIGGER walk runs to WalkLen.
func cycle(t int) *dyngraph.Sequence {
	g := dyngraph.NewSequence(3, 0, t)
	for _, s := range g.Snapshots {
		s.AddEdge(0, 1)
		s.AddEdge(1, 2)
		s.AddEdge(2, 0)
	}
	return g
}

func TestWorkCountsWalkEdgesAndVocabularySteps(t *testing.T) {
	g := New(Config{Seed: 1})
	if err := g.Fit(cycle(2)); err != nil {
		t.Fatal(err)
	}
	// M = 6: int(TrainFactor 2 · 6 / WalkLen 6) = 2 training walks of 6
	// edges, one forward of 16·128 + 128² + 128 multiply-adds per edge.
	const edge = 16*128 + 1*128*128 + 128
	if fit, _ := g.Work(); fit != 2*6*edge {
		t.Fatalf("fit work %d, want %d", fit, 2*6*edge)
	}
	// T = 4 asks for 6·4/2 = 12 edges: two walks of 6 steps, each step a
	// forward plus a 128×N projection onto the N = 3 vocabulary.
	if _, err := g.Generate(4); err != nil {
		t.Fatal(err)
	}
	if _, gen := g.Work(); gen != 12*(edge+128*3) {
		t.Fatalf("generate work %d, want %d", gen, 12*(edge+128*3))
	}
}
