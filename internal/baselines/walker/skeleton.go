package walker

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"vrdag/internal/baselines"
	"vrdag/internal/dyngraph"
)

// in is the input width of every counted per-edge network.
const in = 16

// TagGen's gate: the share of real walks it accepts, its proposal rounds,
// the candidates it proposes per walk still owed, and the floor on its
// training walk pool.
const (
	acceptRate    = 0.6
	maxRounds     = 40
	oversample    = 10
	minTrainWalks = 10
)

// skeleton is one walk baseline: a walk source, a walk length, a train
// factor and the shape of the per-edge network it counts. A gated skeleton
// (TagGen) also scores every candidate walk on its endpoints and keeps
// those that pass, in rounds.
type skeleton struct {
	name        string
	mode        walkMode
	walkLen     int
	trainFactor float64 // training walk edges per temporal edge
	hidden      int64   // counted network's hidden width
	blocks      int64   // counted network's hidden blocks
	gated       bool

	rng *rand.Rand
	ix  *Index

	// The gate's fit (gated only): empirical source and destination
	// frequency per node, and the score a candidate must reach.
	outFreq, inFreq []float64
	threshold       float64

	fitWork, genWork int64 // counted multiply-adds of the last Fit and Generate
}

// NewTIGGER returns the sampling skeleton of TIGGER (Gupta et al., AAAI
// 2022), the most scalable temporal random-walk generator, without its
// network: walks of length 6 over every out-edge of a node, with times
// clamped to stay monotone instead of filtered per step, merged into
// snapshots with no discrimination.
//
// The original's recurrent walker is counted, not run. Work reports its
// multiply-adds by the rules of a per-edge MLP of input width 16, hidden
// width 128 and one hidden block: in·h + h² + h per walk edge, plus an h·N
// projection onto the node vocabulary per generated walk step. Fit counts
// one forward per training walk, two walk edges per temporal edge; the
// original trains for many epochs, so the fit count is a lower bound on
// its training.
func NewTIGGER(seed int64) baselines.Generator {
	return &skeleton{name: "TIGGER", mode: walkClamped, walkLen: 6, trainFactor: 2,
		hidden: 128, blocks: 1, rng: rand.New(rand.NewSource(seed))}
}

// NewTGGAN returns the sampling skeleton of TG-GAN (Zhang et al., WWW
// 2021) without its networks: truncated temporal random walks of length 4
// with strict time-validity constraints (timestamps must strictly
// increase along a walk), merged into snapshots. Compared to TagGen, walks
// are shorter and there is no discriminate-and-resample loop.
//
// The original's generator is counted, not run. Work reports its
// multiply-adds by the rules of a per-edge MLP of input width 16, hidden
// width 128 and two hidden blocks: in·h + 2h² + h per walk edge, plus an
// h·N projection onto the node vocabulary per generated walk step. Fit
// counts one forward per training walk, one walk edge per temporal edge;
// the original trains adversarially for many epochs, so the fit count is a
// lower bound on its training.
func NewTGGAN(seed int64) baselines.Generator {
	return &skeleton{name: "TGGAN", mode: walkStrict, walkLen: 4, trainFactor: 1,
		hidden: 128, blocks: 2, rng: rand.New(rand.NewSource(seed))}
}

// NewTagGen returns the sampling skeleton of TagGen (Zhou et al., KDD
// 2020), the first data-driven dynamic graph generator, without its
// network: sample a large pool of non-decreasing temporal random walks of
// length up to 8, score each candidate walk, and merge the accepted walks
// into synthetic snapshots.
//
// The original scores walks with a transformer discriminator trained
// adversarially. Here a walk's score is its empirical endpoint
// log-likelihood alone, and a candidate is accepted when that score
// reaches the 0.4 quantile of the real training walks' scores, so about
// 60 % of real-like walks pass. Each of at most 40 rounds proposes up to
// ten candidates per walk still owed, plus forty, and stops proposing once
// the accepted walks meet the edge budget. The discriminator is
// counted, not run. Work reports its multiply-adds by the rules of a
// per-edge MLP of input width 16, hidden width 192 and four hidden blocks:
// in·h + 4h² + h per scored walk edge, so every oversampled and every
// rejected candidate counts. Fit counts one forward per training walk,
// four walk edges per temporal edge and at least ten walks; the original
// trains for many epochs, so the fit count is a lower bound on its
// training.
func NewTagGen(seed int64) baselines.Generator {
	return &skeleton{name: "TagGen", mode: walkNondecreasing, walkLen: 8, trainFactor: 4,
		hidden: 192, blocks: 4, gated: true, rng: rand.New(rand.NewSource(seed))}
}

// Name implements baselines.Generator.
func (g *skeleton) Name() string { return g.name }

// Work reports the multiply-adds the original's network would spend on
// the last Fit and the last Generate (see the constructors).
func (g *skeleton) Work() (fit, gen int64) { return g.fitWork, g.genWork }

// edgeWork is the counted network's multiply-adds per walk edge.
func (g *skeleton) edgeWork() int64 {
	return in*g.hidden + g.blocks*g.hidden*g.hidden + g.hidden
}

// Fit indexes the sequence and samples the training walks the original
// trains its network on, counting one forward per walk edge. A gated
// skeleton also fits its endpoint frequencies and calibrates its accept
// threshold on those walks' scores.
func (g *skeleton) Fit(seq *dyngraph.Sequence) error {
	g.fitWork, g.ix = 0, nil
	ix := BuildIndex(seq)
	if ix.M() == 0 {
		return fmt.Errorf("%s: cannot fit on an edgeless sequence", strings.ToLower(g.name))
	}
	g.ix = ix
	nWalks := int(g.trainFactor * float64(g.ix.M()) / float64(g.walkLen))
	var scores []float64
	if g.gated {
		g.fitEndpoints()
		nWalks = max(nWalks, minTrainWalks)
	}
	for range nWalks {
		w := g.ix.walk(g.walkLen, g.mode, g.rng)
		g.fitWork += int64(len(w)) * g.edgeWork()
		if g.gated {
			scores = append(scores, g.score(w))
		}
	}
	if g.gated {
		g.threshold = quantile(scores, 1-acceptRate)
	}
	return nil
}

// fitEndpoints sets the empirical source and destination frequencies.
func (g *skeleton) fitEndpoints() {
	g.outFreq = make([]float64, g.ix.N)
	g.inFreq = make([]float64, g.ix.N)
	for _, e := range g.ix.Edges {
		g.outFreq[e.U]++
		g.inFreq[e.V]++
	}
	total := float64(g.ix.M())
	for i := range g.outFreq {
		g.outFreq[i] /= total
		g.inFreq[i] /= total
	}
}

// score is a walk's mean endpoint log-likelihood under the empirical
// source and destination frequencies.
func (g *skeleton) score(w []TemporalEdge) float64 {
	s := 0.0
	for _, e := range w {
		s += (math.Log(g.outFreq[e.U]+1e-9) + math.Log(g.inFreq[e.V]+1e-9)) / float64(len(w))
	}
	return s
}

// Generate samples walks until the training sequence's edge budget, scaled
// to t snapshots, is met, rescales their timestamps to t and merges them.
// A generator (TIGGER, TG-GAN) keeps every walk and counts a vocabulary
// projection per step; a gated skeleton proposes an oversampled batch per
// round and keeps the candidates its discriminator passes, until the
// budget is met.
func (g *skeleton) Generate(t int) (*dyngraph.Sequence, error) {
	if g.ix == nil {
		return nil, fmt.Errorf("%s: Generate before Fit", strings.ToLower(g.name))
	}
	if t <= 0 {
		return nil, fmt.Errorf("%s: T must be positive, got %d", strings.ToLower(g.name), t)
	}
	target := max(g.ix.M()*t/g.ix.T, 1)
	stepWork := g.edgeWork()
	rounds := target // every walk has at least one edge
	if g.gated {
		rounds = maxRounds
	} else {
		stepWork += g.hidden * int64(g.ix.N)
	}
	g.genWork = 0
	var walks [][]TemporalEdge
	edges := 0
	for round := 0; round < rounds && edges < target; round++ {
		batch := 1
		if g.gated {
			// Proportional to the remaining quota: the discriminator sees
			// every candidate and rejects most, which is where the
			// original's generation time goes.
			batch = ((target-edges)/g.walkLen + 4) * oversample
		}
		for range batch {
			if edges >= target {
				break
			}
			w := g.ix.walk(g.walkLen, g.mode, g.rng)
			g.genWork += int64(len(w)) * stepWork
			if g.gated && g.score(w) < g.threshold {
				continue
			}
			for j := range w {
				w[j].T = w[j].T * t / g.ix.T
			}
			walks = append(walks, w)
			edges += len(w)
		}
	}
	return Assemble(g.ix.N, t, walks), nil
}

// quantile returns the element at rank ⌊q·(n−1)⌋ of vals sorted
// ascending, leaving vals as it was. The scores are finite, so the order
// is total.
func quantile(vals []float64, q float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}
