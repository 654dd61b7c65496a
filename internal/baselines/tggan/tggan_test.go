package tggan

import (
	"testing"

	"vrdag/internal/dyngraph"
)

func TestWorkCountsWalkEdgesAndVocabularySteps(t *testing.T) {
	// One snapshot of the 3-cycle 0→1→2→0: no edge is strictly later than
	// another, so every time-valid walk stops after its first edge.
	seq := dyngraph.NewSequence(3, 0, 1)
	seq.At(0).AddEdge(0, 1)
	seq.At(0).AddEdge(1, 2)
	seq.At(0).AddEdge(2, 0)
	g := New(Config{Seed: 1, TrainFactor: 4})
	if err := g.Fit(seq); err != nil {
		t.Fatal(err)
	}
	// int(TrainFactor 4 · M 3 / WalkLen 4) = 3 training walks of one
	// edge, one forward of 16·128 + 2·128² + 128 multiply-adds each.
	const edge = 16*128 + 2*128*128 + 128
	if fit, _ := g.Work(); fit != 3*edge {
		t.Fatalf("fit work %d, want %d", fit, 3*edge)
	}
	// T = 1 asks for 3 edges: three one-step walks, each step a forward
	// plus a 128×N projection onto the N = 3 vocabulary.
	if _, err := g.Generate(1); err != nil {
		t.Fatal(err)
	}
	if _, gen := g.Work(); gen != 3*(edge+128*3) {
		t.Fatalf("generate work %d, want %d", gen, 3*(edge+128*3))
	}
}
