// Package walker provides the temporal random-walk machinery shared by the
// walk-based baselines (TagGen, TGGAN, TIGGER). A temporal walk is a
// sequence of edges with non-decreasing timestamps; the samplers here
// mirror the sampling strategies those papers build on. Nothing here is
// neural: each baseline counts the multiply-adds its original's network
// would spend on the walks these samplers draw, and runs none of them.
package walker

import (
	"fmt"
	"math/rand"
	"sort"

	"vrdag/internal/dyngraph"
)

// TemporalEdge is a directed edge stamped with its snapshot index.
type TemporalEdge struct {
	U, V, T int
}

// Index holds a dynamic graph flattened into time-sorted temporal edges
// with per-node outgoing adjacency, supporting O(log E) successor queries.
type Index struct {
	N, T  int
	Edges []TemporalEdge
	// outByNode[u] lists indices into Edges of u's outgoing temporal
	// edges, sorted by time.
	outByNode [][]int
}

// BuildIndex flattens a sequence into a temporal edge index.
func BuildIndex(g *dyngraph.Sequence) *Index {
	idx := &Index{N: g.N, T: g.T(), outByNode: make([][]int, g.N)}
	for t, s := range g.Snapshots {
		for u := 0; u < s.N; u++ {
			for _, v := range s.Out[u] {
				idx.Edges = append(idx.Edges, TemporalEdge{U: u, V: v, T: t})
			}
		}
	}
	sort.Slice(idx.Edges, func(a, b int) bool {
		if idx.Edges[a].T != idx.Edges[b].T {
			return idx.Edges[a].T < idx.Edges[b].T
		}
		if idx.Edges[a].U != idx.Edges[b].U {
			return idx.Edges[a].U < idx.Edges[b].U
		}
		return idx.Edges[a].V < idx.Edges[b].V
	})
	for i, e := range idx.Edges {
		idx.outByNode[e.U] = append(idx.outByNode[e.U], i)
	}
	return idx
}

// M returns the number of temporal edges.
func (ix *Index) M() int { return len(ix.Edges) }

// RandomEdge returns a uniformly random temporal edge.
func (ix *Index) RandomEdge(rng *rand.Rand) (TemporalEdge, error) {
	if len(ix.Edges) == 0 {
		return TemporalEdge{}, fmt.Errorf("walker: empty graph")
	}
	return ix.Edges[rng.Intn(len(ix.Edges))], nil
}

// successors returns the indices of u's outgoing edges with time >= minT
// (TagGen-style non-decreasing walks) or time > minT when strict (TGGAN's
// time-validity constraint).
func (ix *Index) successors(u, minT int, strict bool) []int {
	list := ix.outByNode[u]
	lo := sort.Search(len(list), func(i int) bool {
		t := ix.Edges[list[i]].T
		if strict {
			return t > minT
		}
		return t >= minT
	})
	return list[lo:]
}

// Walk samples one temporal random walk of at most maxLen edges starting
// from a uniformly random edge. strict enforces strictly increasing times.
func (ix *Index) Walk(maxLen int, strict bool, rng *rand.Rand) []TemporalEdge {
	start, err := ix.RandomEdge(rng)
	if err != nil {
		return nil
	}
	walk := []TemporalEdge{start}
	cur := start
	for len(walk) < maxLen {
		succ := ix.successors(cur.V, cur.T, strict)
		if len(succ) == 0 {
			break
		}
		cur = ix.Edges[succ[rng.Intn(len(succ))]]
		walk = append(walk, cur)
	}
	return walk
}

// TransitionModel is the first-order model TIGGER fits once before
// generation: empirical start distribution over temporal edges and
// per-node successor counts.
type TransitionModel struct {
	ix *Index
	// succCum[u] is the cumulative distribution over u's outgoing edges
	// (time-agnostic; times are re-sampled during generation).
	succCum [][]float64
}

// FitTransitions builds the transition model from an index.
func FitTransitions(ix *Index) *TransitionModel {
	tm := &TransitionModel{ix: ix, succCum: make([][]float64, ix.N)}
	for u := 0; u < ix.N; u++ {
		list := ix.outByNode[u]
		cum := make([]float64, len(list)+1)
		for i := range list {
			cum[i+1] = cum[i] + 1
		}
		tm.succCum[u] = cum
	}
	return tm
}

// Walk samples a pre-trained first-order walk (TIGGER-style: no per-step
// temporal filtering, so it is much cheaper than Index.Walk).
func (tm *TransitionModel) Walk(maxLen int, rng *rand.Rand) []TemporalEdge {
	start, err := tm.ix.RandomEdge(rng)
	if err != nil {
		return nil
	}
	walk := []TemporalEdge{start}
	cur := start
	for len(walk) < maxLen {
		list := tm.ix.outByNode[cur.V]
		if len(list) == 0 {
			break
		}
		next := tm.ix.Edges[list[rng.Intn(len(list))]]
		// Clamp time monotonicity after the fact (cheap approximation of
		// the temporal point process).
		if next.T < cur.T {
			next.T = cur.T
		}
		walk = append(walk, next)
		cur = next
	}
	return walk
}

// Assemble merges accepted walks into a sequence: each walk edge lands in
// the snapshot of its timestamp (clamped to [0, T)).
func Assemble(n, t int, f int, walks [][]TemporalEdge) *dyngraph.Sequence {
	g := dyngraph.NewSequence(n, f, t)
	for _, w := range walks {
		for _, e := range w {
			tt := e.T
			if tt < 0 {
				tt = 0
			}
			if tt >= t {
				tt = t - 1
			}
			g.Snapshots[tt].AddEdge(e.U, e.V)
		}
	}
	return g
}
