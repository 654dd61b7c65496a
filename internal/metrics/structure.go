// Package metrics implements every evaluation metric used in the paper's
// experiments: graph-structure statistics (degree distributions, clustering,
// power-law exponents, wedge count, components, coreness), distribution
// discrepancies (MMD, JSD, EMD), attribute-correlation error (Spearman MAE),
// and the temporal difference series of Eq. (19)-(21).
package metrics

import (
	"math"

	"vrdag/internal/dyngraph"
)

// InDegrees returns the in-degree of every node.
func InDegrees(s *dyngraph.Snapshot) []float64 {
	d := make([]float64, s.N)
	for v := 0; v < s.N; v++ {
		d[v] = float64(s.InDegree(v))
	}
	return d
}

// OutDegrees returns the out-degree of every node.
func OutDegrees(s *dyngraph.Snapshot) []float64 {
	d := make([]float64, s.N)
	for v := 0; v < s.N; v++ {
		d[v] = float64(s.OutDegree(v))
	}
	return d
}

// TotalDegrees returns the undirected degree (|In ∪ Out|) of every node.
func TotalDegrees(s *dyngraph.Snapshot) []float64 {
	d := make([]float64, s.N)
	for v := 0; v < s.N; v++ {
		d[v] = float64(len(s.UndirectedNeighbors(v)))
	}
	return d
}

// ClusteringCoefficients returns the local clustering coefficient of every
// node on the underlying undirected graph.
func ClusteringCoefficients(s *dyngraph.Snapshot) []float64 {
	nbrs := make([][]int, s.N)
	for v := 0; v < s.N; v++ {
		nbrs[v] = s.UndirectedNeighbors(v)
	}
	// mark[w] == v exactly when w is a neighbour of the node v being scored.
	mark := make([]int, s.N)
	for w := range mark {
		mark[w] = -1
	}
	cc := make([]float64, s.N)
	for v, nv := range nbrs {
		k := len(nv)
		if k < 2 {
			continue
		}
		for _, u := range nv {
			mark[u] = v
		}
		// Each linked neighbour pair u < w is counted once, from u's side.
		links := 0
		for _, u := range nv {
			for _, w := range nbrs[u] {
				if w > u && mark[w] == v {
					links++
				}
			}
		}
		cc[v] = 2 * float64(links) / float64(k*(k-1))
	}
	return cc
}

// GlobalClustering returns the average local clustering coefficient.
func GlobalClustering(s *dyngraph.Snapshot) float64 {
	cc := ClusteringCoefficients(s)
	sum := 0.0
	for _, v := range cc {
		sum += v
	}
	if len(cc) == 0 {
		return 0
	}
	return sum / float64(len(cc))
}

// PowerLawExponent estimates the power-law exponent of a degree sequence by
// the discrete maximum-likelihood estimator of Clauset et al.:
// α = 1 + n / Σ ln(d_i / (dmin - 0.5)) over degrees ≥ dmin (dmin = 1).
func PowerLawExponent(degrees []float64) float64 {
	const dmin = 1.0
	n := 0
	sum := 0.0
	for _, d := range degrees {
		if d >= dmin {
			n++
			sum += math.Log(d / (dmin - 0.5))
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(n)/sum
}

// WedgeCount returns the number of wedges (paths of length two) in the
// underlying undirected graph: Σ_v C(deg(v), 2).
func WedgeCount(s *dyngraph.Snapshot) float64 {
	total := 0.0
	for v := 0; v < s.N; v++ {
		k := float64(len(s.UndirectedNeighbors(v)))
		total += k * (k - 1) / 2
	}
	return total
}

// ComponentSizes returns the sizes of the weakly connected components that
// contain at least one edge endpoint (isolated nodes are excluded, matching
// how the paper's component counts behave on sparse snapshots).
func ComponentSizes(s *dyngraph.Snapshot) []int {
	visited := make([]bool, s.N)
	var sizes []int
	stack := make([]int, 0, 64)
	for start := 0; start < s.N; start++ {
		if visited[start] || (len(s.Out[start]) == 0 && len(s.In[start]) == 0) {
			continue
		}
		size := 0
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, w := range s.UndirectedNeighbors(v) {
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return sizes
}

// NumComponents returns the number of weakly connected components with
// at least 2 nodes.
func NumComponents(s *dyngraph.Snapshot) float64 {
	return float64(len(ComponentSizes(s)))
}

// LargestComponent returns the size of the largest weakly connected
// component (0 for an empty graph).
func LargestComponent(s *dyngraph.Snapshot) float64 {
	mx := 0
	for _, sz := range ComponentSizes(s) {
		if sz > mx {
			mx = sz
		}
	}
	return float64(mx)
}

// Coreness computes the k-core number of every node on the underlying
// undirected graph using the O(E) peeling algorithm of Batagelj-Zaversnik.
func Coreness(s *dyngraph.Snapshot) []float64 {
	n := s.N
	deg := make([]int, n)
	nbrs := make([][]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		nbrs[v] = s.UndirectedNeighbors(v)
		deg[v] = len(nbrs[v])
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// bucket sort by degree
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)
	vert := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = v
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range nbrs[v] {
			if core[u] > core[v] {
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = float64(core[v])
	}
	return out
}
