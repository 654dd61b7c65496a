// Package tggan reimplements the sampling skeleton of TG-GAN (Zhang et
// al., WWW 2021) without its networks: truncated temporal random walks
// with strict time-validity constraints (timestamps must strictly increase
// along a walk), merged into snapshots. Compared to TagGen, walks are
// shorter and there is no discriminate-and-resample loop.
//
// The original's generator is counted, not run. Work reports its
// multiply-adds by the rules of a per-edge MLP of input width 16, hidden
// width 128 and two hidden blocks: in·h + 2h² + h per walk edge, plus an
// h·N projection onto the node vocabulary per generated walk step. Fit
// counts one forward per training walk; the original trains adversarially
// for many epochs, so the fit count is a lower bound on its training.
package tggan

import (
	"fmt"
	"math/rand"

	"vrdag/internal/baselines/walker"
	"vrdag/internal/dyngraph"
)

// Config tunes the walk sampling.
type Config struct {
	WalkLen     int     // truncation length (default 4)
	TrainFactor float64 // training walks per temporal edge (default 1)
	Seed        int64
}

// The counted generator's shape, and its multiply-adds per walk edge.
const (
	in       = 16
	hidden   = 128
	blocks   = 2
	edgeWork = in*hidden + blocks*hidden*hidden + hidden
)

func (c Config) withDefaults() Config {
	if c.WalkLen == 0 {
		c.WalkLen = 4
	}
	if c.TrainFactor == 0 {
		c.TrainFactor = 1
	}
	return c
}

// Gen implements baselines.Generator.
type Gen struct {
	cfg Config
	rng *rand.Rand
	ix  *walker.Index

	fitWork, genWork int64 // counted multiply-adds of the last Fit and Generate
}

// New creates an unfitted TG-GAN baseline.
func New(cfg Config) *Gen {
	cfg = cfg.withDefaults()
	return &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements baselines.Generator.
func (g *Gen) Name() string { return "TGGAN" }

// Work reports the multiply-adds the original's generator would spend on
// the last Fit and the last Generate (see the package comment).
func (g *Gen) Work() (fit, gen int64) { return g.fitWork, g.genWork }

// Fit indexes the sequence and samples the (smaller) training walk pool,
// counting one generator forward per walk edge.
func (g *Gen) Fit(seq *dyngraph.Sequence) error {
	g.fitWork = 0
	g.ix = walker.BuildIndex(seq)
	if g.ix.M() == 0 {
		return fmt.Errorf("tggan: cannot fit on an edgeless sequence")
	}
	nWalks := int(g.cfg.TrainFactor * float64(g.ix.M()) / float64(g.cfg.WalkLen))
	for i := 0; i < nWalks; i++ {
		g.fitWork += int64(len(g.ix.Walk(g.cfg.WalkLen, true, g.rng))) * edgeWork
	}
	return nil
}

// Generate samples truncated time-valid walks until the edge budget is
// met, then merges them.
func (g *Gen) Generate(t int) (*dyngraph.Sequence, error) {
	if g.ix == nil {
		return nil, fmt.Errorf("tggan: Generate before Fit")
	}
	if t <= 0 {
		return nil, fmt.Errorf("tggan: T must be positive, got %d", t)
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
		w := g.ix.Walk(g.cfg.WalkLen, true, g.rng)
		if len(w) == 0 {
			continue
		}
		// Per-step generator forward plus the output projection over the
		// node vocabulary (the generator emits next-node logits).
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
