// Package walker holds the three temporal random-walk baselines, TIGGER,
// TG-GAN and TagGen, as three configurations of one walk skeleton, and the
// temporal-walk machinery they share. A temporal walk is a sequence of
// edges with non-decreasing timestamps; the samplers here mirror the
// sampling strategies those papers build on. Nothing here is neural: each
// baseline counts the multiply-adds its original's network would spend on
// the walks these samplers draw, and runs none of them.
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

// walkMode is how a walk picks the next edge out of the current one's head.
type walkMode int

const (
	// walkNondecreasing steps to an edge at the same time or later
	// (TagGen).
	walkNondecreasing walkMode = iota
	// walkStrict steps to a strictly later edge: TG-GAN's time-validity
	// constraint.
	walkStrict
	// walkClamped steps to any of the head's edges and raises an earlier
	// time to the current one, a cheap stand-in for TIGGER's temporal
	// point process: no per-step temporal filtering.
	walkClamped
)

// successors returns the indices of u's outgoing edges that a walk in mode
// may take after an edge at time minT.
func (ix *Index) successors(u, minT int, mode walkMode) []int {
	list := ix.outByNode[u]
	if mode == walkClamped {
		return list
	}
	lo := sort.Search(len(list), func(i int) bool {
		t := ix.Edges[list[i]].T
		if mode == walkStrict {
			return t > minT
		}
		return t >= minT
	})
	return list[lo:]
}

// walk samples one temporal random walk of at most maxLen edges starting
// from a uniformly random edge.
func (ix *Index) walk(maxLen int, mode walkMode, rng *rand.Rand) []TemporalEdge {
	start, err := ix.RandomEdge(rng)
	if err != nil {
		return nil
	}
	walk := []TemporalEdge{start}
	cur := start
	for len(walk) < maxLen {
		succ := ix.successors(cur.V, cur.T, mode)
		if len(succ) == 0 {
			break
		}
		next := ix.Edges[succ[rng.Intn(len(succ))]]
		next.T = max(next.T, cur.T) // a no-op unless walkClamped
		walk = append(walk, next)
		cur = next
	}
	return walk
}

// Assemble merges accepted walks into an unattributed sequence: each walk
// edge lands in the snapshot of its timestamp (clamped to [0, T)).
func Assemble(n, t int, walks [][]TemporalEdge) *dyngraph.Sequence {
	g := dyngraph.NewSequence(n, 0, t)
	for _, w := range walks {
		addWalk(g, w)
	}
	return g
}

// addWalk adds w's edges to g as Assemble does and returns how many of
// them g did not hold yet.
func addWalk(g *dyngraph.Sequence, w []TemporalEdge) int {
	added := 0
	for _, e := range w {
		if g.Snapshots[min(max(e.T, 0), g.T()-1)].AddEdge(e.U, e.V) {
			added++
		}
	}
	return added
}
