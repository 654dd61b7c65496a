// Package tigger reimplements the sampling skeleton of TIGGER (Gupta et
// al., AAAI 2022), the most scalable temporal random-walk generator,
// without its network: a first-order transition model is fitted once, and
// generation samples walks from it without per-step temporal filtering or
// discrimination, then merges them into snapshots.
//
// The original's recurrent walker is counted, not run. Work reports its
// multiply-adds by the rules of a per-edge MLP of input width 16, hidden
// width 128 and one hidden block: in·h + h² + h per walk edge, plus an h·N
// projection onto the node vocabulary per generated walk step. Fit counts
// one forward per training walk; the original trains for many epochs, so
// the fit count is a lower bound on its training.
package tigger

import (
	"fmt"
	"math/rand"

	"vrdag/internal/baselines/walker"
	"vrdag/internal/dyngraph"
)

// Config tunes the transition model and walk sampling.
type Config struct {
	WalkLen     int     // walk length l′ (default 6)
	TrainFactor float64 // pre-training walks per temporal edge (default 2)
	Seed        int64
}

// The counted recurrent walker's shape, and its multiply-adds per walk edge.
const (
	in       = 16
	hidden   = 128
	blocks   = 1
	edgeWork = in*hidden + blocks*hidden*hidden + hidden
)

func (c Config) withDefaults() Config {
	if c.WalkLen == 0 {
		c.WalkLen = 6
	}
	if c.TrainFactor == 0 {
		c.TrainFactor = 2
	}
	return c
}

// Gen implements baselines.Generator.
type Gen struct {
	cfg Config
	rng *rand.Rand
	ix  *walker.Index
	tm  *walker.TransitionModel

	fitWork, genWork int64 // counted multiply-adds of the last Fit and Generate
}

// New creates an unfitted TIGGER baseline.
func New(cfg Config) *Gen {
	cfg = cfg.withDefaults()
	return &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements baselines.Generator.
func (g *Gen) Name() string { return "TIGGER" }

// Work reports the multiply-adds the original's recurrent walker would
// spend on the last Fit and the last Generate (see the package comment).
func (g *Gen) Work() (fit, gen int64) { return g.fitWork, g.genWork }

// Fit builds the transition model (one pass) and samples the pre-training
// walks the original trains its recurrent walker on, counting one forward
// per walk edge.
func (g *Gen) Fit(seq *dyngraph.Sequence) error {
	g.fitWork = 0
	g.ix = walker.BuildIndex(seq)
	if g.ix.M() == 0 {
		return fmt.Errorf("tigger: cannot fit on an edgeless sequence")
	}
	g.tm = walker.FitTransitions(g.ix)
	nWalks := int(g.cfg.TrainFactor * float64(g.ix.M()) / float64(g.cfg.WalkLen))
	for i := 0; i < nWalks; i++ {
		g.fitWork += int64(len(g.tm.Walk(g.cfg.WalkLen, g.rng))) * edgeWork
	}
	return nil
}

// Generate samples pre-trained walks until the edge budget is met.
func (g *Gen) Generate(t int) (*dyngraph.Sequence, error) {
	if g.tm == nil {
		return nil, fmt.Errorf("tigger: Generate before Fit")
	}
	if t <= 0 {
		return nil, fmt.Errorf("tigger: T must be positive, got %d", t)
	}
	targetEdges := g.ix.M() * t / g.ix.T
	if targetEdges < 1 {
		targetEdges = 1
	}
	g.genWork = 0
	var walks [][]walker.TemporalEdge
	edges := 0
	guard := 0
	for edges < targetEdges && guard < targetEdges*20 {
		guard++
		w := g.tm.Walk(g.cfg.WalkLen, g.rng)
		if len(w) == 0 {
			continue
		}
		// Recurrent forward plus next-node logits over the vocabulary:
		// the two per-step costs of the original's generation loop.
		g.genWork += int64(len(w)) * (edgeWork + hidden*int64(g.ix.N))
		if t != g.ix.T {
			for j := range w {
				w[j].T = w[j].T * t / g.ix.T
			}
		}
		walks = append(walks, w)
		edges += len(w)
	}
	return walker.Assemble(g.ix.N, t, 0, walks), nil
}
