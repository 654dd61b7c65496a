package datasets

import (
	"math"
	"testing"

	"vrdag/internal/metrics"
)

func TestAllReplicasGenerateAtSmallScale(t *testing.T) {
	for _, name := range AllNames() {
		g, cfg, err := Replica(name, 0.02, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid sequence: %v", name, err)
		}
		if g.T() != cfg.T {
			t.Fatalf("%s: T=%d, want %d", name, g.T(), cfg.T)
		}
		if g.F != cfg.F {
			t.Fatalf("%s: F=%d, want %d", name, g.F, cfg.F)
		}
		if g.TotalTemporalEdges() == 0 {
			t.Fatalf("%s: no edges generated", name)
		}
	}
}

func TestUnknownReplica(t *testing.T) {
	if _, _, err := Replica("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestReplicaDeterminism(t *testing.T) {
	a, _, _ := Replica(Email, 0.05, 42)
	b, _, _ := Replica(Email, 0.05, 42)
	if a.TotalTemporalEdges() != b.TotalTemporalEdges() {
		t.Fatal("same seed must generate identical sequences")
	}
	for tt := range a.Snapshots {
		sa, sb := a.At(tt), b.At(tt)
		for u := 0; u < sa.N; u++ {
			for _, v := range sa.Out[u] {
				if !sb.HasEdge(u, v) {
					t.Fatalf("t=%d edge %d->%d missing in re-run", tt, u, v)
				}
			}
		}
		if sa.X != nil && !sa.X.Equal(sb.X, 0) {
			t.Fatalf("t=%d attributes differ", tt)
		}
	}
	c, _, _ := Replica(Email, 0.05, 43)
	if c.TotalTemporalEdges() == a.TotalTemporalEdges() &&
		func() bool {
			for tt := range a.Snapshots {
				if a.At(tt).NumEdges() != c.At(tt).NumEdges() {
					return false
				}
			}
			return true
		}() {
		t.Fatal("different seeds should almost surely differ")
	}
}

func TestFullScaleMatchesTableIStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale replica generation in -short mode")
	}
	want := map[string]struct{ n, m int }{
		Email:     {1891, 39264},
		Bitcoin:   {3783, 24186},
		Guarantee: {5530, 6169},
	}
	for name, w := range want {
		g, _, err := Replica(name, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if g.N != w.n {
			t.Fatalf("%s: N=%d, want %d", name, g.N, w.n)
		}
		m := g.TotalTemporalEdges()
		// Persistence and reciprocity make M stochastic; require the right
		// order of magnitude (within 2x).
		if float64(m) < float64(w.m)/2 || float64(m) > float64(w.m)*2 {
			t.Fatalf("%s: M=%d, want ≈%d", name, m, w.m)
		}
	}
}

func TestReplicaHeavyTailedDegrees(t *testing.T) {
	g, _, _ := Replica(Wiki, 0.05, 3)
	last := g.At(g.T() - 1)
	deg := metrics.TotalDegrees(last)
	// Heavy tail: max degree far above mean degree.
	mean, mx := 0.0, 0.0
	for _, d := range deg {
		mean += d
		if d > mx {
			mx = d
		}
	}
	mean /= float64(len(deg))
	if mx < mean*5 {
		t.Fatalf("degree tail too light: max=%g mean=%g", mx, mean)
	}
}

func TestReplicaTemporalPersistence(t *testing.T) {
	g, cfg, _ := Replica(Guarantee, 0.05, 4)
	// A replica with persistence must share edges between consecutive
	// snapshots well above chance.
	shared, total := 0, 0
	for tt := 1; tt < g.T(); tt++ {
		prev, cur := g.At(tt-1), g.At(tt)
		for u := 0; u < g.N; u++ {
			for _, v := range prev.Out[u] {
				total++
				if cur.HasEdge(u, v) {
					shared++
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no edges to check")
	}
	frac := float64(shared) / float64(total)
	if frac < cfg.Persistence/2 {
		t.Fatalf("persistence too low: %g (configured %g)", frac, cfg.Persistence)
	}
}

func TestReplicaAttributesCoEvolve(t *testing.T) {
	g, _, _ := Replica(Email, 0.1, 5)
	last := g.At(g.T() - 1)
	deg := metrics.TotalDegrees(last)
	attr0 := make([]float64, g.N)
	for i := 0; i < g.N; i++ {
		attr0[i] = last.X.At(i, 0)
	}
	// Attribute dimension 0 is driven by degree; correlation must be
	// clearly positive.
	if rho := metrics.Spearman(deg, attr0); rho < 0.1 {
		t.Fatalf("attributes not coupled to structure: spearman=%g", rho)
	}
}

func TestReplicaAttributeCorrelationControl(t *testing.T) {
	// Email configures correlated attribute innovations; Bitcoin has one
	// attribute and no correlation machinery. Verify Email's two
	// attributes correlate.
	g, _, _ := Replica(Email, 0.1, 6)
	rows := metrics.AttributeRows(g)
	m := metrics.SpearmanMatrix(rows)
	if math.Abs(m[0][1]) < 0.3 {
		t.Fatalf("expected correlated attributes, got rho=%g", m[0][1])
	}
}

func TestGenerateDirectDefaultsApplied(t *testing.T) {
	g := Generate(Config{N: 20, T: 3, F: 1, EdgesPerStep: 30, Seed: 9})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalTemporalEdges() == 0 {
		t.Fatal("no edges with defaults")
	}
}
