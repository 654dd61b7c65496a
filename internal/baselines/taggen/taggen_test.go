package taggen

import (
	"testing"

	"vrdag/internal/dyngraph"
)

func TestWorkCountsEveryScoredCandidate(t *testing.T) {
	// One snapshot of the 3-cycle 0→1→2→0: every walk runs to WalkLen 8,
	// and every walk scores the same, so every candidate is accepted.
	seq := dyngraph.NewSequence(3, 0, 1)
	seq.At(0).AddEdge(0, 1)
	seq.At(0).AddEdge(1, 2)
	seq.At(0).AddEdge(2, 0)
	g := New(Config{Seed: 1})
	if err := g.Fit(seq); err != nil {
		t.Fatal(err)
	}
	// int(TrainFactor 4 · M 3 / WalkLen 8) = 1 is raised to the floor of
	// 10 training walks of 8 edges, one forward of 16·192 + 4·192² + 192
	// multiply-adds per edge.
	const edge = 16*192 + 4*192*192 + 192
	if fit, _ := g.Work(); fit != 10*8*edge {
		t.Fatalf("fit work %d, want %d", fit, 10*8*edge)
	}
	// T = 1 asks for 3 edges. The first round proposes
	// (3/8 + 4)·Oversample 10 = 40 candidates and scores all of them,
	// although the first already meets the quota.
	if _, err := g.Generate(1); err != nil {
		t.Fatal(err)
	}
	if _, gen := g.Work(); gen != 40*8*edge {
		t.Fatalf("generate work %d, want %d", gen, 40*8*edge)
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
