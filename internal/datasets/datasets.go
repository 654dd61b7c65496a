// Package datasets produces seeded synthetic replicas of the six dynamic
// attributed graphs used in the paper's evaluation (Table I): Emails-DNC,
// Bitcoin-Alpha, Wiki-Vote, Guarantee, Brain, and GDELT.
//
// The real datasets are not redistributable (the module is offline and the
// Guarantee network is proprietary bank data), so each replica is generated
// by a configurable process that matches the published statistics — node
// count N, temporal edge count M, attribute dimension X, and sequence
// length T — and the qualitative character the paper's model is designed
// to exploit:
//
//   - heavy-tailed in/out-degree distributions via preferential attachment
//     on per-node activity weights;
//   - community structure (block-biased destination choice);
//   - temporal edge persistence and burstiness;
//   - directed reciprocity;
//   - *co-evolving* node attributes: attributes follow an AR(1) process
//     driven by node degree and activity, and attribute similarity feeds
//     back into destination choice (homophily), reproducing the
//     structure↔attribute coupling of Section III-C.
//
// All generation is deterministic given Config.Seed.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vrdag/internal/dyngraph"
)

// Config parameterises the synthetic dynamic-attributed-graph process.
type Config struct {
	Name string

	N int // nodes
	T int // timesteps
	F int // attribute dimensions

	EdgesPerStep  int     // mean new-edge budget per snapshot
	Activity      float64 // Zipf exponent of per-node activity weights (≈1 heavy tail)
	Communities   int     // number of latent communities (>=1)
	Homophily     float64 // prob. of intra-community destination choice
	AttrHomophily float64 // prob. of attribute-similarity destination choice
	Persistence   float64 // prob. an edge from step t-1 persists at t
	Reciprocity   float64 // prob. an added edge also adds its reverse
	Burstiness    float64 // lognormal σ of the per-step activity multiplier

	AttrAR       float64 // AR(1) coefficient of the attribute process
	AttrCoupling float64 // weight of the degree/activity drive on attributes
	AttrNoise    float64 // innovation noise σ
	AttrCorr     float64 // cross-dimension correlation of innovations

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Communities < 1 {
		c.Communities = 1
	}
	if c.Activity == 0 {
		c.Activity = 0.9
	}
	if c.Persistence == 0 {
		c.Persistence = 0.3
	}
	if c.AttrAR == 0 {
		c.AttrAR = 0.85
	}
	if c.AttrNoise == 0 {
		c.AttrNoise = 0.15
	}
	if c.AttrCoupling == 0 {
		c.AttrCoupling = 0.3
	}
	return c
}

// Generate produces the dynamic attributed graph described by cfg.
func Generate(cfg Config) *dyngraph.Sequence {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := dyngraph.NewSequence(cfg.N, cfg.F, cfg.T)

	// Static per-node activity weights: Zipf over a random permutation so
	// hub identity is seed-dependent, not index-dependent.
	perm := rng.Perm(cfg.N)
	weight := make([]float64, cfg.N)
	for r, v := range perm {
		weight[v] = math.Pow(float64(r+1), -cfg.Activity)
	}
	community := make([]int, cfg.N)
	for v := range community {
		community[v] = rng.Intn(cfg.Communities)
	}
	// Cumulative weights per community and global, for O(log N) sampling.
	globalCum, globalNodes := cumulative(weight, nil)
	commCum := make([][]float64, cfg.Communities)
	commNodes := make([][]int, cfg.Communities)
	for cIdx := 0; cIdx < cfg.Communities; cIdx++ {
		members := []int{}
		for v := 0; v < cfg.N; v++ {
			if community[v] == cIdx {
				members = append(members, v)
			}
		}
		w := make([]float64, len(members))
		for i, v := range members {
			w[i] = weight[v]
		}
		commCum[cIdx], commNodes[cIdx] = cumulative(w, members)
	}

	// Attribute state: per-node latent style vector plus AR(1) dynamics.
	attr := make([][]float64, cfg.N)
	style := make([][]float64, cfg.N)
	for v := 0; v < cfg.N; v++ {
		attr[v] = make([]float64, cfg.F)
		style[v] = make([]float64, cfg.F)
		for j := 0; j < cfg.F; j++ {
			base := float64(community[v])/math.Max(1, float64(cfg.Communities-1)) - 0.5
			style[v][j] = base + 0.5*rng.NormFloat64()
			attr[v][j] = style[v][j]
		}
	}

	var prev *dyngraph.Snapshot
	for t := 0; t < cfg.T; t++ {
		s := g.At(t)

		// Edge persistence from the previous snapshot.
		if prev != nil && cfg.Persistence > 0 {
			for u := 0; u < cfg.N; u++ {
				for _, v := range prev.Out[u] {
					if rng.Float64() < cfg.Persistence {
						s.AddEdge(u, v)
					}
				}
			}
		}

		// New edges under a bursty budget.
		budget := float64(cfg.EdgesPerStep)
		if cfg.Burstiness > 0 {
			budget *= math.Exp(cfg.Burstiness*rng.NormFloat64() - cfg.Burstiness*cfg.Burstiness/2)
		}
		for e := 0; e < int(budget); e++ {
			u := sampleCum(globalCum, globalNodes, rng)
			v := pickDestination(u, community, commCum, commNodes, globalCum, globalNodes, attr, cfg, rng)
			if u == v {
				continue
			}
			s.AddEdge(u, v)
			if cfg.Reciprocity > 0 && rng.Float64() < cfg.Reciprocity {
				s.AddEdge(v, u)
			}
		}

		// Attribute co-evolution: AR(1) pulled toward the node's style,
		// driven by current structural prominence.
		if cfg.F > 0 {
			maxDeg := 1.0
			for v := 0; v < cfg.N; v++ {
				if d := float64(s.OutDegree(v) + s.InDegree(v)); d > maxDeg {
					maxDeg = d
				}
			}
			for v := 0; v < cfg.N; v++ {
				drive := float64(s.OutDegree(v)+s.InDegree(v)) / maxDeg
				shared := rng.NormFloat64() // correlated innovation component
				row := s.X.Row(v)
				for j := 0; j < cfg.F; j++ {
					noise := cfg.AttrCorr*shared + (1-cfg.AttrCorr)*rng.NormFloat64()
					attr[v][j] = cfg.AttrAR*attr[v][j] +
						(1-cfg.AttrAR)*style[v][j] +
						cfg.AttrCoupling*drive +
						cfg.AttrNoise*noise
					row[j] = attr[v][j]
				}
			}
		}

		prev = s
	}
	return g
}

// pickDestination selects a destination node for source u, mixing
// community homophily, attribute homophily, and global preferential
// attachment.
func pickDestination(u int, community []int, commCum [][]float64, commNodes [][]int,
	globalCum []float64, globalNodes []int, attr [][]float64, cfg Config, rng *rand.Rand) int {

	r := rng.Float64()
	if r < cfg.AttrHomophily && cfg.F > 0 {
		// Attribute homophily: pick a few random nodes, keep the one with
		// the closest attribute vector (cheap nearest-of-k).
		best, bestD := -1, math.Inf(1)
		for k := 0; k < 5; k++ {
			v := sampleCum(globalCum, globalNodes, rng)
			if v == u {
				continue
			}
			d := 0.0
			for j := range attr[u] {
				diff := attr[u][j] - attr[v][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = v, d
			}
		}
		if best >= 0 {
			return best
		}
	}
	if r < cfg.AttrHomophily+cfg.Homophily && cfg.Communities > 1 {
		c := community[u]
		if len(commNodes[c]) > 1 {
			return sampleCum(commCum[c], commNodes[c], rng)
		}
	}
	return sampleCum(globalCum, globalNodes, rng)
}

// cumulative builds a prefix-sum table over weights; nodes defaults to
// identity when nil.
func cumulative(w []float64, nodes []int) ([]float64, []int) {
	cum := make([]float64, len(w)+1)
	for i, v := range w {
		cum[i+1] = cum[i] + v
	}
	if nodes == nil {
		nodes = make([]int, len(w))
		for i := range nodes {
			nodes[i] = i
		}
	}
	return cum, nodes
}

func sampleCum(cum []float64, nodes []int, rng *rand.Rand) int {
	total := cum[len(cum)-1]
	if total <= 0 {
		return nodes[rng.Intn(len(nodes))]
	}
	u := rng.Float64() * total
	i := sort.SearchFloat64s(cum[1:], u)
	if i >= len(nodes) {
		i = len(nodes) - 1
	}
	return nodes[i]
}

// Name constants for the six replicas.
const (
	Email     = "email"
	Bitcoin   = "bitcoin"
	Wiki      = "wiki"
	Guarantee = "guarantee"
	Brain     = "brain"
	GDELT     = "gdelt"
)

// AllNames lists the six dataset replicas in the paper's Table-I order.
func AllNames() []string {
	return []string{Email, Bitcoin, Wiki, Guarantee, Brain, GDELT}
}

// replicaConfig returns the full-size configuration for a named dataset,
// matching Table I statistics (N, M = EdgesPerStep·T approximately, X, T).
func replicaConfig(name string) (Config, error) {
	switch name {
	case Email:
		// 1,891 nodes, 39,264 temporal edges, 2 attrs, 14 steps.
		return Config{Name: name, N: 1891, T: 14, F: 2,
			EdgesPerStep: 2300, Activity: 1.0, Communities: 8, Homophily: 0.5,
			AttrHomophily: 0.15, Persistence: 0.25, Reciprocity: 0.25,
			Burstiness: 0.4, AttrCorr: 0.5}, nil
	case Bitcoin:
		// 3,783 nodes, 24,186 temporal edges, 1 attr (rating), 37 steps.
		return Config{Name: name, N: 3783, T: 37, F: 1,
			EdgesPerStep: 520, Activity: 0.95, Communities: 12, Homophily: 0.35,
			AttrHomophily: 0.1, Persistence: 0.2, Reciprocity: 0.35,
			Burstiness: 0.3, AttrCorr: 0}, nil
	case Wiki:
		// 7,115 nodes, 103,689 temporal edges, 1 attr, 43 steps.
		return Config{Name: name, N: 7115, T: 43, F: 1,
			EdgesPerStep: 1950, Activity: 1.05, Communities: 20, Homophily: 0.3,
			AttrHomophily: 0.05, Persistence: 0.15, Reciprocity: 0.1,
			Burstiness: 0.35, AttrCorr: 0}, nil
	case Guarantee:
		// 5,530 nodes, 6,169 temporal edges, 2 attrs, 15 steps. Sparse
		// guaranteed-loan network: strong persistence, low reciprocity
		// (guarantor → borrower flows are one-directional).
		return Config{Name: name, N: 5530, T: 15, F: 2,
			EdgesPerStep: 280, Activity: 0.8, Communities: 40, Homophily: 0.6,
			AttrHomophily: 0.2, Persistence: 0.45, Reciprocity: 0.02,
			Burstiness: 0.25, AttrCorr: 0.6}, nil
	case Brain:
		// 5,000 nodes, 529,093 temporal edges, 20 attrs, 12 steps. Dense
		// functional-connectivity graph with strongly correlated attributes.
		return Config{Name: name, N: 5000, T: 12, F: 20,
			EdgesPerStep: 33000, Activity: 0.6, Communities: 10, Homophily: 0.7,
			AttrHomophily: 0.2, Persistence: 0.35, Reciprocity: 0.5,
			Burstiness: 0.2, AttrCorr: 0.7}, nil
	case GDELT:
		// 5,037 nodes, 566,735 temporal edges, 10 attrs, 18 steps. Dense
		// event graph with bursty international-relations dynamics.
		return Config{Name: name, N: 5037, T: 18, F: 10,
			EdgesPerStep: 24500, Activity: 0.85, Communities: 15, Homophily: 0.45,
			AttrHomophily: 0.1, Persistence: 0.25, Reciprocity: 0.3,
			Burstiness: 0.5, AttrCorr: 0.4}, nil
	default:
		return Config{}, fmt.Errorf("datasets: unknown dataset %q (want one of %v)", name, AllNames())
	}
}

// Replica generates a named dataset replica at the given scale factor.
// scale = 1 reproduces the Table-I statistics; smaller scales shrink N and
// the per-step edge budget proportionally (T and F are preserved) so unit
// tests and CI-speed benchmarks stay fast. Scale values are clamped to
// keep at least 16 nodes.
func Replica(name string, scale float64, seed int64) (*dyngraph.Sequence, Config, error) {
	cfg, err := replicaConfig(name)
	if err != nil {
		return nil, Config{}, err
	}
	if scale <= 0 {
		scale = 1
	}
	cfg.Seed = seed
	if scale != 1 {
		cfg.N = int(float64(cfg.N) * scale)
		if cfg.N < 16 {
			cfg.N = 16
		}
		cfg.EdgesPerStep = int(float64(cfg.EdgesPerStep) * scale)
		if cfg.EdgesPerStep < 8 {
			cfg.EdgesPerStep = 8
		}
	}
	return Generate(cfg), cfg, nil
}
