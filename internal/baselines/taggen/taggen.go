// Package taggen reimplements the sampling skeleton of TagGen (Zhou et al.,
// KDD 2020), the first data-driven dynamic graph generator, without its
// network: sample a large pool of temporal random walks, score each
// candidate walk, and merge the accepted walks into synthetic snapshots.
//
// The original scores walks with a transformer discriminator trained
// adversarially. Here a walk's score is its empirical endpoint
// log-likelihood alone, and a candidate is accepted when that score
// reaches the (1 − AcceptRate) quantile of the real training walks'
// scores. The discriminator is counted, not run. Work reports its
// multiply-adds by the rules of a per-edge MLP of input width 16, hidden
// width 192 and four hidden blocks: in·h + 4h² + h per scored walk edge,
// so every oversampled and every rejected candidate counts. Fit counts
// one forward per training walk; the original trains for many epochs, so
// the fit count is a lower bound on its training.
package taggen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"vrdag/internal/baselines/walker"
	"vrdag/internal/dyngraph"
)

// Config tunes the sampling effort.
type Config struct {
	WalkLen     int     // maximum temporal walk length (default 8)
	TrainFactor float64 // training walks per temporal edge (default 4)
	AcceptRate  float64 // discriminator acceptance quantile (default 0.6)
	MaxRounds   int     // sampling rounds before giving up (default 40)
	Oversample  int     // candidate walks proposed per accepted walk (default 10)
	Seed        int64
}

// The counted discriminator's shape, and its multiply-adds per walk edge.
const (
	in       = 16
	hidden   = 192
	blocks   = 4
	edgeWork = in*hidden + blocks*hidden*hidden + hidden
)

func (c Config) withDefaults() Config {
	if c.WalkLen == 0 {
		c.WalkLen = 8
	}
	if c.TrainFactor == 0 {
		c.TrainFactor = 4
	}
	if c.AcceptRate == 0 {
		c.AcceptRate = 0.6
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 40
	}
	if c.Oversample == 0 {
		c.Oversample = 10
	}
	return c
}

// Gen implements baselines.Generator.
type Gen struct {
	cfg Config
	rng *rand.Rand

	ix        *walker.Index
	outFreq   []float64 // empirical source frequency per node
	inFreq    []float64 // empirical destination frequency per node
	threshold float64   // acceptance threshold on a walk's score
	f         int

	fitWork, genWork int64 // counted multiply-adds of the last Fit and Generate
}

// New creates an unfitted TagGen baseline.
func New(cfg Config) *Gen {
	cfg = cfg.withDefaults()
	return &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements baselines.Generator.
func (g *Gen) Name() string { return "TagGen" }

// Work reports the multiply-adds the original's discriminator would spend
// on the last Fit and the last Generate (see the package comment).
func (g *Gen) Work() (fit, gen int64) { return g.fitWork, g.genWork }

// Fit samples the training walk pool and calibrates the acceptance
// threshold, counting one discriminator forward per walk edge.
func (g *Gen) Fit(seq *dyngraph.Sequence) error {
	g.fitWork = 0
	g.ix = walker.BuildIndex(seq)
	if g.ix.M() == 0 {
		return fmt.Errorf("taggen: cannot fit on an edgeless sequence")
	}
	g.f = 0 // TagGen does not synthesise attributes (paper, Section I)

	g.outFreq = make([]float64, seq.N)
	g.inFreq = make([]float64, seq.N)
	for _, e := range g.ix.Edges {
		g.outFreq[e.U]++
		g.inFreq[e.V]++
	}
	total := float64(g.ix.M())
	for i := range g.outFreq {
		g.outFreq[i] /= total
		g.inFreq[i] /= total
	}

	// "Training": sample the walk pool the discriminator would be trained
	// on and calibrate the acceptance threshold to the configured
	// quantile of real-walk scores.
	nWalks := int(g.cfg.TrainFactor * float64(g.ix.M()) / float64(g.cfg.WalkLen))
	if nWalks < 10 {
		nWalks = 10
	}
	scores := make([]float64, 0, nWalks)
	for i := 0; i < nWalks; i++ {
		w := g.ix.Walk(g.cfg.WalkLen, false, g.rng)
		if len(w) > 0 {
			scores = append(scores, g.score(w))
			g.fitWork += int64(len(w)) * edgeWork
		}
	}
	if len(scores) == 0 {
		return fmt.Errorf("taggen: failed to sample any training walks")
	}
	g.threshold = quantile(scores, 1-g.cfg.AcceptRate)
	return nil
}

// score is a walk's mean endpoint log-likelihood under the empirical
// source and destination frequencies.
func (g *Gen) score(w []walker.TemporalEdge) float64 {
	s := 0.0
	for _, e := range w {
		s += (math.Log(g.outFreq[e.U]+1e-9) + math.Log(g.inFreq[e.V]+1e-9)) / float64(len(w))
	}
	return s
}

// Generate runs the sample→discriminate→merge loop until the synthetic
// sequence reaches the training edge budget.
func (g *Gen) Generate(t int) (*dyngraph.Sequence, error) {
	if g.ix == nil {
		return nil, fmt.Errorf("taggen: Generate before Fit")
	}
	if t <= 0 {
		return nil, fmt.Errorf("taggen: T must be positive, got %d", t)
	}
	targetEdges := g.ix.M() * t / g.ix.T
	if targetEdges < 1 {
		targetEdges = 1
	}
	g.genWork = 0
	var accepted [][]walker.TemporalEdge
	edges := 0
	for round := 0; round < g.cfg.MaxRounds && edges < targetEdges; round++ {
		// Each round proposes an oversampled batch proportional to the
		// remaining quota: the discriminator sees every candidate and
		// rejects most, which is where the original's generation time goes.
		batch := ((targetEdges-edges)/g.cfg.WalkLen + 4) * g.cfg.Oversample
		for i := 0; i < batch; i++ {
			w := g.ix.Walk(g.cfg.WalkLen, false, g.rng)
			if len(w) == 0 {
				continue
			}
			g.genWork += int64(len(w)) * edgeWork
			if g.score(w) >= g.threshold { // discriminator gate
				accepted = append(accepted, w)
				edges += len(w)
			}
		}
	}
	out := walker.Assemble(g.ix.N, t, g.f, accepted)
	// Rescale walk timestamps when generating longer/shorter horizons.
	if t != g.ix.T {
		out = rescaleTime(accepted, g.ix.N, g.ix.T, t, g.f)
	}
	return out, nil
}

func rescaleTime(walks [][]walker.TemporalEdge, n, tOrig, tNew, f int) *dyngraph.Sequence {
	scaled := make([][]walker.TemporalEdge, len(walks))
	for i, w := range walks {
		sw := make([]walker.TemporalEdge, len(w))
		for j, e := range w {
			e.T = e.T * tNew / tOrig
			sw[j] = e
		}
		scaled[i] = sw
	}
	return walker.Assemble(n, tNew, f, scaled)
}

// quantile returns the element at rank ⌊q·(n−1)⌋ of vals sorted
// ascending, leaving vals as it was. The scores are finite, so the order
// is total.
func quantile(vals []float64, q float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}
