// Package gencat reimplements GenCAT (Maekawa et al., Information Systems
// 2023), the state-of-the-art *static* attributed graph generator used as
// the paper's strongest attribute baseline. GenCAT models (i) node-class
// memberships, (ii) a class-to-class preference (connection proportion)
// matrix, (iii) per-node degrees, and (iv) per-class attribute
// distributions, then samples graphs whose class/attribute/topology
// relationships match the fitted ones.
//
// Being static, it generates every snapshot independently — it cannot
// carry node behaviour across timesteps, which is exactly the failure mode
// the paper's dynamic-difference experiments expose.
package gencat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"vrdag/internal/dyngraph"
)

// Config seeds the generator.
type Config struct {
	Seed int64
}

// classes is the latent class count.
const classes = 4

// Gen implements baselines.Generator.
type Gen struct {
	rng *rand.Rand

	n, f       int
	class      []int       // fitted node-class memberships
	classPref  [][]float64 // class-to-class connection proportions (row-normalised cumulative)
	classNodes [][]int     // members per class
	classCum   [][]float64 // degree-weighted cumulative per class
	attrMean   [][]float64 // per class × dim
	attrStd    [][]float64
	edgeTarget float64 // mean edges per snapshot
}

// New creates an unfitted GenCAT baseline.
func New(cfg Config) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements baselines.Generator.
func (g *Gen) Name() string { return "GenCAT" }

// Fit estimates classes (degree-quantile clustering refined by attribute
// means), the class preference matrix, per-node degree weights, and the
// per-class attribute distributions.
func (g *Gen) Fit(seq *dyngraph.Sequence) error {
	if seq.T() == 0 {
		return fmt.Errorf("gencat: empty sequence")
	}
	g.n, g.f = seq.N, seq.F
	k := classes

	// Aggregate degree and mean attributes over the sequence.
	deg := make([]float64, g.n)
	attrAvg := make([][]float64, g.n)
	for i := range attrAvg {
		attrAvg[i] = make([]float64, max(g.f, 1))
	}
	edges := 0.0
	for _, s := range seq.Snapshots {
		edges += float64(s.NumEdges())
		for v := 0; v < g.n; v++ {
			deg[v] += float64(s.OutDegree(v) + s.InDegree(v))
			if g.f > 0 {
				row := s.X.Row(v)
				for j := 0; j < g.f; j++ {
					attrAvg[v][j] += row[j] / float64(seq.T())
				}
			}
		}
	}
	g.edgeTarget = edges / float64(seq.T())

	// Class assignment: k-quantiles of a combined score (first attribute
	// mean when available, degree otherwise). This captures GenCAT's
	// class↔attribute coupling without a full EM fit.
	score := make([]float64, g.n)
	for v := 0; v < g.n; v++ {
		if g.f > 0 {
			score[v] = attrAvg[v][0]
		} else {
			score[v] = deg[v]
		}
	}
	idx := make([]int, g.n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return score[idx[a]] < score[idx[b]] })
	g.class = make([]int, g.n)
	for r, v := range idx {
		g.class[v] = r * k / g.n
	}

	// Class preference matrix from observed edges.
	pref := make([][]float64, k)
	for i := range pref {
		pref[i] = make([]float64, k)
	}
	for _, s := range seq.Snapshots {
		for u := 0; u < g.n; u++ {
			for _, v := range s.Out[u] {
				pref[g.class[u]][g.class[v]]++
			}
		}
	}
	g.classPref = make([][]float64, k)
	for i := 0; i < k; i++ {
		row := make([]float64, k+1)
		for j := 0; j < k; j++ {
			row[j+1] = row[j] + pref[i][j] + 1 // +1 smoothing
		}
		g.classPref[i] = row
	}

	// Degree-weighted member tables per class.
	g.classNodes = make([][]int, k)
	g.classCum = make([][]float64, k)
	for c := 0; c < k; c++ {
		var members []int
		for v := 0; v < g.n; v++ {
			if g.class[v] == c {
				members = append(members, v)
			}
		}
		cum := make([]float64, len(members)+1)
		for i, v := range members {
			cum[i+1] = cum[i] + deg[v] + 1
		}
		g.classNodes[c] = members
		g.classCum[c] = cum
	}

	// Per-class attribute Gaussians.
	if g.f > 0 {
		g.attrMean = make([][]float64, k)
		g.attrStd = make([][]float64, k)
		counts := make([]float64, k)
		for c := 0; c < k; c++ {
			g.attrMean[c] = make([]float64, g.f)
			g.attrStd[c] = make([]float64, g.f)
		}
		for v := 0; v < g.n; v++ {
			c := g.class[v]
			counts[c]++
			for j := 0; j < g.f; j++ {
				g.attrMean[c][j] += attrAvg[v][j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < g.f; j++ {
				g.attrMean[c][j] /= counts[c]
			}
		}
		for v := 0; v < g.n; v++ {
			c := g.class[v]
			for j := 0; j < g.f; j++ {
				d := attrAvg[v][j] - g.attrMean[c][j]
				g.attrStd[c][j] += d * d
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < g.f; j++ {
				g.attrStd[c][j] = math.Sqrt(g.attrStd[c][j]/counts[c]) + 1e-6
			}
		}
	}
	return nil
}

func (g *Gen) samplePref(c int) int {
	row := g.classPref[c]
	total := row[len(row)-1]
	u := g.rng.Float64() * total
	i := sort.SearchFloat64s(row[1:], u)
	if i >= len(row)-1 {
		i = len(row) - 2
	}
	return i
}

func (g *Gen) sampleMember(c int) int {
	members := g.classNodes[c]
	if len(members) == 0 {
		return g.rng.Intn(g.n)
	}
	cum := g.classCum[c]
	u := g.rng.Float64() * cum[len(cum)-1]
	i := sort.SearchFloat64s(cum[1:], u)
	if i >= len(members) {
		i = len(members) - 1
	}
	return members[i]
}

// Generate produces T independent snapshots with class-structured topology
// and per-class attribute draws.
func (g *Gen) Generate(t int) (*dyngraph.Sequence, error) {
	if g.class == nil {
		return nil, fmt.Errorf("gencat: Generate before Fit")
	}
	if t <= 0 {
		return nil, fmt.Errorf("gencat: T must be positive, got %d", t)
	}
	out := dyngraph.NewSequence(g.n, g.f, t)
	for tt := 0; tt < t; tt++ {
		s := out.At(tt)
		budget := int(g.edgeTarget)
		for e := 0; e < budget*2 && s.NumEdges() < budget; e++ {
			// choose source by global degree weight via class tables
			cu := g.rng.Intn(classes)
			u := g.sampleMember(cu)
			cv := g.samplePref(g.class[u])
			v := g.sampleMember(cv)
			if u != v {
				s.AddEdge(u, v)
			}
		}
		if g.f > 0 {
			for v := 0; v < g.n; v++ {
				c := g.class[v]
				row := s.X.Row(v)
				for j := 0; j < g.f; j++ {
					row[j] = g.attrMean[c][j] + g.attrStd[c][j]*g.rng.NormFloat64()
				}
			}
		}
	}
	return out, nil
}
