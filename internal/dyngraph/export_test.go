package dyngraph

import "sort"

// RemoveEdge deletes u→v if present, reporting whether it existed.
func (s *Snapshot) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= s.N || v >= s.N {
		return false
	}
	i := sort.SearchInts(s.Out[u], v)
	if i >= len(s.Out[u]) || s.Out[u][i] != v {
		return false
	}
	s.Out[u] = append(s.Out[u][:i], s.Out[u][i+1:]...)
	s.indeg[v]--
	s.m--
	s.invalidateCSR()
	return true
}
