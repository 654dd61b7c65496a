package core

import (
	"math/rand"

	"vrdag/internal/dyngraph"
)

// guideBuckets is the guide table's size as a multiple of N. Measured with
// BenchmarkCandidates (2 vCPU Xeon 2.1 GHz, cap 128; ns per draw, median of
// 7 interleaved runs, rand.Float64 and the dedupe included) at 1, 2, 4 and
// 8 buckets per node: N=1891 — 30.8, 26.3, 22.6, 20.7; N=151 — 36.8, 30.0,
// 26.4, 24.5; the binary search this replaced read 117 and 81. At 4 the
// table is 30 KB at N=1891; 8 buys a tenth more for 60 KB per request, more
// than L1 holds beside cum, and was not taken to an end-to-end run.
const guideBuckets = 4

// candCDF is one timestep's degree-proportional candidate distribution in
// the form the capped decoder draws from: the prefix sums of the node
// weights and a guide (cutpoint) table over them — Chen & Asau 1974 — so
// that inverting the CDF at u costs O(1) expected steps instead of a
// binary search. It is filled serially once per timestep (decodeStructure)
// and only read by the scoring workers.
type candCDF struct {
	cum     []float64 // N+1 prefix sums of the weights, cum[0] = 0; non-decreasing
	guide   []int32   // guide[b] = min{ j : cum[j+1] ≥ b·total/len(guide) }, capped at N−1
	total   float64   // cum[N]
	perUnit float64   // len(guide)/total: buckets per unit of weight
}

func newCandCDF(n int) *candCDF {
	return &candCDF{cum: make([]float64, n+1), guide: make([]int32, guideBuckets*n)}
}

// index rebuilds the guide table after cum has been rewritten: one
// two-pointer sweep over the buckets and the prefix sums.
func (c *candCDF) index() {
	cum, last := c.cum, len(c.cum)-2
	c.total = cum[last+1]
	c.perUnit = float64(len(c.guide)) / c.total
	width := c.total / float64(len(c.guide))
	j := 0
	for b := range c.guide {
		lo := float64(b) * width
		for j < last && cum[j+1] < lo {
			j++
		}
		c.guide[b] = int32(j)
	}
}

// lookup inverts the CDF: min{ j : cum[j+1] ≥ u }, capped at N−1. The
// guide only picks where the walk starts — on a non-decreasing cum the two
// loops end on that index from any start — so neither its contents nor the
// rounding of u·perUnit can change a result, only how many steps it takes.
// The bucket is clamped on both sides because int() of a NaN or an
// out-of-range product is platform-defined.
func (c *candCDF) lookup(u float64) int {
	cum, last := c.cum, len(c.cum)-2
	b := int(u * c.perUnit)
	if b < 0 {
		b = 0
	} else if b >= len(c.guide) {
		b = len(c.guide) - 1
	}
	j := int(c.guide[b])
	for j > 0 && cum[j] >= u {
		j--
	}
	for j < last && cum[j+1] < u {
		j++
	}
	return j
}

// candidates builds the destination candidate set for node i when the
// model decodes through a CandidateCap: the node's previous out-neighbours
// (temporal persistence) filled up to the cap with degree-proportional
// draws without replacement, each an inverse-CDF lookup of one rng.Float64.
// (Exact Eq. 11 decoding scores every other node and never materialises a
// list; see pairScorer.) The inverse CDF, not an alias table: which index a
// given u maps to is part of the output. The set is appended to out, the
// node's empty slice of capacity CandidateCap; a draw that hits i or a node
// already in the set is rejected, and after 4·cap draws the set stays short
// (at cap 128 of N=151 that limit binds). Node i is active, so cdf.total
// includes its own weight degree+1 ≥ 1 and is positive. mark is
// caller-provided dedup scratch of length N, false on entry; it is cleaned
// before returning so the worker can reuse it for the next node.
func candidates(out []int, i int, prev *dyngraph.Snapshot, cdf *candCDF, rng *rand.Rand, mark []bool) []int {
	limit := cap(out)
	if prev != nil {
		for _, j := range prev.Out[i] {
			if len(out) == limit {
				break
			}
			if j != i && !mark[j] {
				mark[j] = true
				out = append(out, j)
			}
		}
	}
	for attempts := 0; len(out) < limit && attempts < limit*4; attempts++ {
		j := cdf.lookup(rng.Float64() * cdf.total)
		if j != i && !mark[j] {
			mark[j] = true
			out = append(out, j)
		}
	}
	for _, j := range out {
		mark[j] = false
	}
	return out
}
