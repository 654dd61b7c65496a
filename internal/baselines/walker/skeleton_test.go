package walker

import (
	"testing"

	"vrdag/internal/dyngraph"
)

// cycle returns t snapshots of the directed 3-cycle 0→1→2→0: every node
// has a successor, so every non-strict walk runs to its full length.
func cycle(t int) *dyngraph.Sequence {
	g := dyngraph.NewSequence(3, 0, t)
	for _, s := range g.Snapshots {
		s.AddEdge(0, 1)
		s.AddEdge(1, 2)
		s.AddEdge(2, 0)
	}
	return g
}

func TestTIGGERWorkCountsWalkEdgesAndVocabularySteps(t *testing.T) {
	g := NewTIGGER(1).(*skeleton)
	if err := g.Fit(cycle(2)); err != nil {
		t.Fatal(err)
	}
	// int(train factor 2 · M 6 / walk length 6) = 2 training walks of 6
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

func TestTGGANWorkCountsWalkEdgesAndVocabularySteps(t *testing.T) {
	// One snapshot of the 3-cycle: no edge is strictly later than
	// another, so every time-valid walk stops after its first edge.
	g := NewTGGAN(1).(*skeleton)
	// TG-GAN's shape with train factor 4 instead of its 1, so that the
	// three-edge cycle yields a pool of three walks rather than none.
	g.trainFactor = 4
	if err := g.Fit(cycle(1)); err != nil {
		t.Fatal(err)
	}
	// int(train factor 4 · M 3 / walk length 4) = 3 training walks of one
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

func TestTagGenWorkCountsEveryScoredCandidate(t *testing.T) {
	// One snapshot of the 3-cycle: every walk runs to its length 8, and
	// every walk scores the same, so every candidate is accepted.
	g := NewTagGen(1).(*skeleton)
	if err := g.Fit(cycle(1)); err != nil {
		t.Fatal(err)
	}
	// int(train factor 4 · M 3 / walk length 8) = 1 is raised to the floor of
	// 10 training walks of 8 edges, one forward of 16·192 + 4·192² + 192
	// multiply-adds per edge.
	const edge = 16*192 + 4*192*192 + 192
	if fit, _ := g.Work(); fit != 10*8*edge {
		t.Fatalf("fit work %d, want %d", fit, 10*8*edge)
	}
	// T = 1 asks for 3 edges. The first round may propose
	// (3/8 + 4)·oversample 10 = 40 candidates, but the first one scored
	// already meets the quota, so the round stops there.
	if _, err := g.Generate(1); err != nil {
		t.Fatal(err)
	}
	if _, gen := g.Work(); gen != 8*edge {
		t.Fatalf("generate work %d, want %d", gen, 8*edge)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{3, -1, 2, 2, -1, 5}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, -1},   // the minimum
		{0.2, -1}, // rank ⌊0.2·5⌋ = 1: the second of the tied minima
		{0.4, 2},  // rank 2: the first of the tied 2s
		{0.6, 2},  // rank 3: the second 2
		{0.8, 3},  // rank 4
		{1, 5},    // the maximum
	} {
		if got := quantile(vals, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", vals, tc.q, got, tc.want)
		}
	}
	if vals[0] != 3 || vals[5] != 5 {
		t.Fatalf("quantile reordered its input: %v", vals)
	}
	if got := quantile([]float64{7}, 0.5); got != 7 {
		t.Fatalf("quantile of one value = %g, want 7", got)
	}
}
