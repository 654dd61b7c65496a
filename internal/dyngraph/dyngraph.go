// Package dyngraph defines the dynamic attributed directed graph model used
// throughout the repository: a Sequence of Snapshots over a fixed node set
// (the paper's formulation G = {G_t(V, E_t, X_t)}), with sparse adjacency,
// per-node attribute vectors, and text-based persistence.
package dyngraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"vrdag/internal/tensor"
)

// Snapshot is one timestep of a dynamic attributed graph: a directed graph
// over N nodes with an optional N×F attribute matrix. Each edge is stored
// once, in its source's sorted out-neighbour list, which keeps edge
// insertion deduplicated and membership queries O(log deg); in-neighbours
// are read off the memoised transpose (AdjTCSR) and in-degrees off one
// count per node.
type Snapshot struct {
	N     int
	Out   [][]int        // Out[u] = sorted destinations of u
	X     *tensor.Matrix // N×F attributes; nil when the graph is unattributed
	m     int            // edge count
	indeg []int          // indeg[v] = how many Out lists hold v

	// Memoised CSR pair of the adjacency, A with Aᵀ in its T. The bi-flow
	// encoder asks for both matrices once per layer per epoch, and the
	// SpMM backward multiplies by the transpose; rebuilding them from the
	// neighbour lists dominated encoder time on static snapshots. AddEdge
	// invalidates the cache; the mutex makes concurrent readers of one
	// shared snapshot safe. Recycle moves the pair into kept, and the next
	// build fills its arrays in place instead of allocating.
	csrMu sync.Mutex
	adj   *tensor.CSR
	kept  *tensor.CSR
}

// NewSnapshot returns an empty snapshot over n nodes with f attribute
// dimensions (f == 0 leaves X nil).
func NewSnapshot(n, f int) *Snapshot {
	s := &Snapshot{N: n, Out: make([][]int, n), indeg: make([]int, n)}
	if f > 0 {
		s.X = tensor.New(n, f)
	}
	return s
}

// insertSorted inserts v into the sorted slice if absent; reports insertion.
func insertSorted(s []int, v int) ([]int, bool) {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// AddEdge inserts the directed edge u→v, ignoring duplicates and
// self-loops. It reports whether a new edge was added.
func (s *Snapshot) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= s.N || v >= s.N {
		return false
	}
	out, added := insertSorted(s.Out[u], v)
	if !added {
		return false
	}
	s.Out[u] = out
	s.indeg[v]++
	s.m++
	s.invalidateCSR()
	return true
}

// invalidateCSR drops the memoised CSR pair after a mutation.
func (s *Snapshot) invalidateCSR() {
	s.csrMu.Lock()
	s.adj = nil
	s.csrMu.Unlock()
}

// HasEdge reports whether u→v exists.
func (s *Snapshot) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= s.N || v >= s.N {
		return false
	}
	i := sort.SearchInts(s.Out[u], v)
	return i < len(s.Out[u]) && s.Out[u][i] == v
}

// NumEdges returns the number of directed edges.
func (s *Snapshot) NumEdges() int { return s.m }

// OutDegree returns |Out(u)|.
func (s *Snapshot) OutDegree(u int) int { return len(s.Out[u]) }

// InDegree returns how many nodes have an edge into v.
func (s *Snapshot) InDegree(v int) int { return s.indeg[v] }

// Edges returns all directed edges as (src, dst) pairs in deterministic
// (src-major, dst-minor) order.
func (s *Snapshot) Edges() [][2]int {
	out := make([][2]int, 0, s.m)
	for u := 0; u < s.N; u++ {
		for _, v := range s.Out[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// EdgeLists fills src and dst with the edges as parallel index slices in
// Edges order (handy for CSR and gather/scatter message passing), reusing
// their backing arrays when those have room for the edges and spare more
// indices, and allocating exactly that room when not.
func (s *Snapshot) EdgeLists(src, dst []int, spare int) ([]int, []int) {
	if size := s.m + spare; cap(src) < size || cap(dst) < size {
		src, dst = make([]int, 0, size), make([]int, 0, size)
	}
	src, dst = src[:0], dst[:0]
	for u := 0; u < s.N; u++ {
		for _, v := range s.Out[u] {
			src = append(src, u)
			dst = append(dst, v)
		}
	}
	return src, dst
}

// AdjCSR returns the adjacency matrix A (A[u][v] = 1 for edge u→v) in CSR
// form, with Aᵀ in its T; A·H aggregates each node's out-neighbour states.
// The pair is memoised until the next AddEdge or Recycle and must
// therefore be treated as immutable by callers (the tensor.CSR contract).
// It equals tensor.NewCSR(N, N, src, dst) of EdgeLists.
func (s *Snapshot) AdjCSR() *tensor.CSR {
	s.csrMu.Lock()
	defer s.csrMu.Unlock()
	if s.adj == nil {
		s.adj = s.buildCSR(s.kept)
		s.kept = nil
	}
	return s.adj
}

// AdjTCSR returns Aᵀ, AdjCSR().T; Aᵀ·H aggregates in-neighbour states.
// It is the transpose of the Out lists, tensor.NewCSR(N, N, dst, src) of
// EdgeLists: row v lists v's sources in ascending order.
func (s *Snapshot) AdjTCSR() *tensor.CSR { return s.AdjCSR().T }

// buildCSR builds A from the Out lists and links its transpose, into c's
// and c.T's arrays when c is non-nil and they have the room, and into new
// ones otherwise. A's rows are the Out lists in order.
func (s *Snapshot) buildCSR(c *tensor.CSR) *tensor.CSR {
	n, nnz := s.N, 0
	for u, out := range s.Out {
		for _, v := range out {
			if v < 0 || v >= n {
				panic(fmt.Sprintf("dyngraph: edge %d->%d out of range [0,%d)", u, v, n))
			}
		}
		nnz += len(out)
	}
	var rowPtr, colIdx []int
	var t *tensor.CSR
	if c != nil {
		rowPtr, colIdx, t = c.RowPtr, c.ColIdx, c.T
	} else {
		c = new(tensor.CSR)
	}
	rowPtr, colIdx = resize(rowPtr, n+1), resize(colIdx, nnz)
	rowPtr[0] = 0
	for u, out := range s.Out {
		rowPtr[u+1] = rowPtr[u] + copy(colIdx[rowPtr[u]:], out)
	}
	*c = tensor.CSR{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx}
	c.LinkTranspose(t)
	return c
}

// resize returns s with length n, reusing its array when it has the room.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Recycle empties the snapshot in place for reuse by a streaming
// producer: the attribute matrix is returned to the tensor arena and
// detached, the neighbour lists are truncated with their backing arrays
// kept, the in-degrees zeroed, and the memoised CSR pair is invalidated
// with its arrays kept, which the next AdjCSR rebuilds both forms into. After Recycle the
// snapshot is equivalent to NewSnapshot(N, 0) except that rebuilding a
// similar timestep into it, CSR pair included, allocates nothing.
//
// The caller must own the snapshot exclusively: no view of X and no CSR
// form obtained from it may be used afterwards.
func (s *Snapshot) Recycle() {
	if s.X != nil {
		tensor.Put(s.X)
		s.X = nil
	}
	for i := range s.Out {
		s.Out[i] = s.Out[i][:0]
	}
	clear(s.indeg)
	s.m = 0
	s.csrMu.Lock()
	if s.adj != nil {
		s.kept, s.adj = s.adj, nil
	}
	s.csrMu.Unlock()
}

// Clone returns a deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{N: s.N, Out: make([][]int, s.N), m: s.m, indeg: slices.Clone(s.indeg)}
	for i := range s.Out {
		c.Out[i] = append([]int(nil), s.Out[i]...)
	}
	if s.X != nil {
		c.X = s.X.Clone()
	}
	return c
}

// UndirectedNeighbors returns the union of in- and out-neighbours of u
// (used by clustering coefficient, coreness, and components, which the
// paper computes on the underlying undirected graph): Out[u] merged with
// row u of AdjTCSR.
func (s *Snapshot) UndirectedNeighbors(u int) []int {
	t := s.AdjTCSR()
	out, in := s.Out[u], t.ColIdx[t.RowPtr[u]:t.RowPtr[u+1]]
	res := make([]int, 0, len(out)+len(in))
	i, j := 0, 0
	for i < len(out) && j < len(in) {
		a, b := out[i], in[j]
		switch {
		case a == b:
			res = append(res, a)
			i++
			j++
		case a < b:
			res = append(res, a)
			i++
		default:
			res = append(res, b)
			j++
		}
	}
	res = append(res, out[i:]...)
	res = append(res, in[j:]...)
	return res
}

// SampleNeighbors returns a view of the snapshot in which every node
// keeps at most r out-neighbours, sampled without replacement, and reports
// an in-degree of at most r. Attribute data is shared (not copied). This
// implements the per-node neighbour sampling (the paper's r in §III-G)
// that bounds message-passing cost on high-degree graphs; with r <= 0 or
// no node above the cap, the receiver itself is returned.
//
// The view is intended for encoder message passing only: its in-degrees
// are capped apart from its Out lists, so it does not keep the invariant
// of a full Snapshot and must not be mutated or Validated.
func (s *Snapshot) SampleNeighbors(r int, rng *rand.Rand) *Snapshot {
	if r <= 0 {
		return s
	}
	over := false
	for v := 0; v < s.N && !over; v++ {
		over = len(s.Out[v]) > r || s.indeg[v] > r
	}
	if !over {
		return s
	}
	out := &Snapshot{N: s.N, Out: make([][]int, s.N), indeg: make([]int, s.N), X: s.X}
	pick := func(list []int) []int {
		if len(list) <= r {
			return append([]int(nil), list...)
		}
		idx := rng.Perm(len(list))[:r]
		sort.Ints(idx)
		sel := make([]int, r)
		for k, i := range idx {
			sel[k] = list[i]
		}
		return sel
	}
	count := 0
	for v := 0; v < s.N; v++ {
		out.Out[v] = pick(s.Out[v])
		out.indeg[v] = min(s.indeg[v], r)
		if s.indeg[v] > r {
			// The draw that sampled the in-list the view kept when it
			// stored one. Nothing reads its result (the encoder aggregates
			// over the transpose of the sampled Out lists), but the main
			// stream's draw order is part of the trained bits.
			rng.Perm(s.indeg[v])
		}
		count += len(out.Out[v])
	}
	out.m = count
	return out
}

// Sequence is a dynamic attributed graph: T snapshots over a shared node
// universe of size N with F attribute dimensions.
type Sequence struct {
	N         int
	F         int
	Snapshots []*Snapshot
}

// NewSequence allocates a sequence of tt empty snapshots.
func NewSequence(n, f, tt int) *Sequence {
	g := &Sequence{N: n, F: f, Snapshots: make([]*Snapshot, tt)}
	for t := range g.Snapshots {
		g.Snapshots[t] = NewSnapshot(n, f)
	}
	return g
}

// T returns the number of timesteps.
func (g *Sequence) T() int { return len(g.Snapshots) }

// At returns the snapshot at timestep t.
func (g *Sequence) At(t int) *Snapshot { return g.Snapshots[t] }

// TotalTemporalEdges returns Σ_t |E_t| (the paper's M).
func (g *Sequence) TotalTemporalEdges() int {
	m := 0
	for _, s := range g.Snapshots {
		m += s.NumEdges()
	}
	return m
}

// Clone deep-copies the sequence.
func (g *Sequence) Clone() *Sequence {
	c := &Sequence{N: g.N, F: g.F, Snapshots: make([]*Snapshot, g.T())}
	for t, s := range g.Snapshots {
		c.Snapshots[t] = s.Clone()
	}
	return c
}

// maxSequenceWords bounds what a header read from bytes may make a reader
// allocate: T·N·(F+6) eight-byte words, 16 GiB. Each node costs its
// attribute row, its neighbour-list header and its in-degree count per
// snapshot, F+4 words, so the bound over-counts, the safe side. A larger
// header is corrupt or hostile, not a graph this repository can hold.
const maxSequenceWords = 1 << 31

// checkDims is the header rule both sequence readers (Load and
// UnmarshalJSON) apply before allocating: no negative N, F or T, and no
// more than maxSequenceWords.
func checkDims(n, f, t int) error {
	if n < 0 || f < 0 || t < 0 {
		return fmt.Errorf("negative dimensions n=%d f=%d t=%d", n, f, t)
	}
	if n > 0 && t > 0 && f > maxSequenceWords/n/t-6 {
		return fmt.Errorf("dimensions n=%d f=%d t=%d exceed %d words", n, f, t, maxSequenceWords)
	}
	return nil
}

// checkEdge is the endpoint rule both sequence readers apply: u and v in
// [0, n).
func checkEdge(n, u, v int) error {
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("edge [%d,%d] out of range [0,%d)", u, v, n)
	}
	return nil
}

// Validate checks internal consistency (sortedness, edge and in-degree
// counts, attribute shapes) and returns a descriptive error on the first
// violation.
func (g *Sequence) Validate() error {
	indeg := make([]int, g.N)
	for t, s := range g.Snapshots {
		if s.N != g.N {
			return fmt.Errorf("dyngraph: snapshot %d has N=%d, sequence N=%d", t, s.N, g.N)
		}
		if g.F > 0 {
			if s.X == nil {
				return fmt.Errorf("dyngraph: snapshot %d missing attributes", t)
			}
			if s.X.Rows != g.N || s.X.Cols != g.F {
				return fmt.Errorf("dyngraph: snapshot %d attribute shape %dx%d, want %dx%d",
					t, s.X.Rows, s.X.Cols, g.N, g.F)
			}
		}
		count := 0
		clear(indeg)
		copy(indeg, s.indeg)
		for u := 0; u < s.N; u++ {
			if !sort.IntsAreSorted(s.Out[u]) {
				return fmt.Errorf("dyngraph: snapshot %d Out[%d] unsorted", t, u)
			}
			count += len(s.Out[u])
			for _, v := range s.Out[u] {
				if u == v {
					return fmt.Errorf("dyngraph: snapshot %d self-loop at %d", t, u)
				}
				indeg[v]--
			}
		}
		if count != s.m {
			return fmt.Errorf("dyngraph: snapshot %d edge count %d != m %d", t, count, s.m)
		}
		for v, d := range indeg {
			if d != 0 {
				return fmt.Errorf("dyngraph: snapshot %d in-degree count of %d is off by %d", t, v, d)
			}
		}
	}
	return nil
}
