// Package normalattr implements the "Normal" attribute baseline of the
// paper's Fig. 3: node attributes are drawn i.i.d. from per-dimension
// normal distributions whose mean and variance are estimated from the
// ground-truth data. It is an attribute-generation method only, so the
// synthetic sequence reuses the observed topology — isolating exactly the
// attribute-quality comparison the figure makes.
package normalattr

import (
	"fmt"
	"math"
	"math/rand"

	"vrdag/internal/dyngraph"
)

// Config holds the RNG seed.
type Config struct {
	Seed int64
}

// Gen implements baselines.Generator.
type Gen struct {
	rng  *rand.Rand
	ref  *dyngraph.Sequence
	mean []float64
	std  []float64
}

// New creates an unfitted Normal baseline.
func New(cfg Config) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements baselines.Generator.
func (g *Gen) Name() string { return "Normal" }

// Fit estimates per-dimension attribute means and variances.
func (g *Gen) Fit(seq *dyngraph.Sequence) error {
	if seq.T() == 0 {
		return fmt.Errorf("normalattr: empty sequence")
	}
	if seq.F == 0 {
		return fmt.Errorf("normalattr: sequence has no attributes")
	}
	g.ref = seq.Clone()
	g.mean = make([]float64, seq.F)
	g.std = make([]float64, seq.F)
	count := float64(seq.N * seq.T())
	for _, s := range seq.Snapshots {
		for i := 0; i < seq.N; i++ {
			row := s.X.Row(i)
			for j := 0; j < seq.F; j++ {
				g.mean[j] += row[j]
			}
		}
	}
	for j := range g.mean {
		g.mean[j] /= count
	}
	for _, s := range seq.Snapshots {
		for i := 0; i < seq.N; i++ {
			row := s.X.Row(i)
			for j := 0; j < seq.F; j++ {
				d := row[j] - g.mean[j]
				g.std[j] += d * d
			}
		}
	}
	for j := range g.std {
		g.std[j] = math.Sqrt(g.std[j]/count) + 1e-9
	}
	return nil
}

// Generate reuses the fitted topology and replaces every attribute with an
// independent normal draw.
func (g *Gen) Generate(t int) (*dyngraph.Sequence, error) {
	if g.ref == nil {
		return nil, fmt.Errorf("normalattr: Generate before Fit")
	}
	if t <= 0 {
		return nil, fmt.Errorf("normalattr: T must be positive, got %d", t)
	}
	out := dyngraph.NewSequence(g.ref.N, g.ref.F, t)
	for tt := 0; tt < t; tt++ {
		src := g.ref.At(tt % g.ref.T())
		s := out.At(tt)
		for u := 0; u < src.N; u++ {
			for _, v := range src.Out[u] {
				s.AddEdge(u, v)
			}
		}
		for i := 0; i < g.ref.N; i++ {
			row := s.X.Row(i)
			for j := 0; j < g.ref.F; j++ {
				row[j] = g.mean[j] + g.std[j]*g.rng.NormFloat64()
			}
		}
	}
	return out, nil
}
