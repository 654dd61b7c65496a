package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vrdag/internal/dyngraph"
	"vrdag/internal/tensor"
)

// lookupRef is the inverse CDF as capped decoding computed it before the
// guide table: a binary search over the prefix sums, capped at N−1.
func lookupRef(cum []float64, u float64) int {
	return min(sort.SearchFloat64s(cum[1:], u), len(cum)-2)
}

// candidatesRef is the candidate builder as it stood before the guide table
// and the inlined accept step, kept verbatim as the reference.
func (m *Model) candidatesRef(out []int, i int, prev *dyngraph.Snapshot, cum []float64, totalW float64, rng *rand.Rand, mark []bool) []int {
	n := m.Cfg.N
	limit := cap(out)
	defer func() {
		for _, j := range out {
			mark[j] = false
		}
	}()
	add := func(j int) {
		if j == i || mark[j] {
			return
		}
		mark[j] = true
		out = append(out, j)
	}
	if prev != nil {
		for _, j := range prev.Out[i] {
			add(j)
			if len(out) >= limit {
				return out
			}
		}
	}
	if totalW <= 0 {
		for len(out) < limit {
			add(rng.Intn(n))
		}
		return out
	}
	for attempts := 0; len(out) < limit && attempts < limit*4; attempts++ {
		u := rng.Float64() * totalW
		j := sort.SearchFloat64s(cum[1:], u)
		if j >= n {
			j = n - 1
		}
		add(j)
	}
	return out
}

// zeroIf is an inactive node's weight where inactive holds and a small
// uneven one elsewhere.
func zeroIf(inactive bool, v int) float64 {
	if inactive {
		return 0
	}
	return float64(1 + v%7)
}

// TestCDFLookupMatchesBinarySearch: the guide-table lookup returns the
// binary search's index for every u — at, just below and just above every
// prefix sum, and over uniform draws — whatever the weights look like, and
// whatever the guide holds.
func TestCDFLookupMatchesBinarySearch(t *testing.T) {
	shapes := []struct {
		name   string
		weight func(v, n int) float64
	}{
		{"equal", func(v, n int) float64 { return 1 }},
		{"zeros at the front", func(v, n int) float64 { return zeroIf(v < n/2, v) }},
		{"zeros in the middle", func(v, n int) float64 { return zeroIf(v > 0 && v < n-1 && v >= n/3 && v <= 2*n/3, v) }},
		{"zeros at the end", func(v, n int) float64 { return zeroIf(v >= (n+1)/2, v) }},
		{"one hub", func(v, n int) float64 {
			if v == n/2 {
				return 1e9
			}
			return 1
		}},
		{"1e-300", func(v, n int) float64 { return 1e-300 }},
		// len(guide)/total overflows to +Inf: every bucket index is clamped.
		{"denormal", func(v, n int) float64 { return math.SmallestNonzeroFloat64 }},
	}
	draws := 100_000
	if testing.Short() {
		draws = 10_000
	}
	for _, sh := range shapes {
		for _, n := range []int{2, 3, 94, 1891} {
			t.Run(fmt.Sprintf("%s/N=%d", sh.name, n), func(t *testing.T) {
				c := newCandCDF(n)
				for v := 0; v < n; v++ {
					c.cum[v+1] = c.cum[v] + sh.weight(v, n)
				}
				c.index()
				if !(c.total > 0) {
					t.Fatalf("total weight %v", c.total)
				}
				check := func(u float64) {
					if got, want := c.lookup(u), lookupRef(c.cum, u); got != want {
						t.Fatalf("lookup(%v) = %d, binary search gives %d (total %v)", u, got, want, c.total)
					}
				}
				edges := func() {
					check(0)
					for _, edge := range c.cum {
						check(edge)
						check(math.Nextafter(edge, math.Inf(-1)))
						check(math.Nextafter(edge, math.Inf(1)))
					}
					check(c.total)
					check(math.Nextafter(c.total, 0))
				}
				edges()
				rng := rand.New(rand.NewSource(int64(n)))
				for d := 0; d < draws; d++ {
					check(rng.Float64() * c.total)
				}
				// The guide decides where a walk starts, never where it ends.
				for b := range c.guide {
					c.guide[b] = int32(rng.Intn(n))
				}
				edges()
			})
		}
	}
}

// cdfFuzzSeeds are FuzzCDFLookup's seed inputs, also committed under
// testdata/fuzz/FuzzCDFLookup so `go test` runs them without -fuzz.
var cdfFuzzSeeds = []struct {
	weights []byte
	frac    float64
	corrupt uint16
}{
	{[]byte{5, 5, 5, 5, 5, 5, 5, 5}, 0.5, 0},                      // equal weights
	{[]byte{0, 0, 0, 9, 13, 0, 0, 255, 0, 0}, 0.999, 0},           // zero runs at the front, middle and end
	{[]byte{1, 1, 255, 1, 1}, 0.25, 0},                            // a hub 2^60 times its neighbours
	{[]byte{0, 0, 0, 0}, 0.5, 0},                                  // no weight at all
	{[]byte{7, 11}, math.Inf(1), 0},                               // N=2, u beyond the total
	{[]byte{6, 10, 14, 18, 22, 26, 30, 34}, 0.5, 6},               // one prefix sum NaN
	{[]byte{6, 10, 14, 18, 22, 26, 30, 34}, 0.75, 9},              // one prefix sum out of order
	{[]byte{6, 10, 14, 18, 22, 26, 30, 34}, math.NaN(), 16},       // the total itself NaN, and u NaN
	{[]byte{4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48}, -3, 0}, // u below zero
}

// FuzzCDFLookup holds the guide-table lookup to the binary search on
// fuzzer-built weight vectors — each byte one weight, its low two bits
// picking zero or one of three magnitudes 2^20 apart — at u = frac·total
// and at the prefix sums around it. With corrupt ≠ 0 one prefix sum is made
// NaN or out of order, which the decoder never produces; then the binary
// search is no reference, and what must still hold is what the both-sided
// bucket clamp and the bounded walk are for: no panic, an index in [0, N).
func FuzzCDFLookup(f *testing.F) {
	for _, s := range cdfFuzzSeeds {
		f.Add(s.weights, s.frac, s.corrupt)
	}
	f.Fuzz(func(t *testing.T, weights []byte, frac float64, corrupt uint16) {
		n := len(weights)
		if n < 2 || n > 4096 {
			t.Skip()
		}
		c := newCandCDF(n)
		for v, b := range weights {
			w := 0.0
			if b&3 != 0 {
				w = math.Ldexp(float64(b>>2)+1, 20*int(b&3)-40)
			}
			c.cum[v+1] = c.cum[v] + w
		}
		if corrupt != 0 {
			k := 1 + int(corrupt>>1)%n
			if corrupt&1 == 0 {
				c.cum[k] = math.NaN()
			} else {
				c.cum[k] = -1 - c.cum[k]
			}
		}
		c.index()
		near := 0
		if a := math.Abs(frac); a <= 1 {
			near = int(a * float64(n))
		}
		for _, u := range []float64{
			frac * c.total, frac, 0, c.total, math.Nextafter(c.total, 0),
			c.cum[near], math.Nextafter(c.cum[near], math.Inf(-1)), math.Nextafter(c.cum[near], math.Inf(1)),
		} {
			got := c.lookup(u)
			if got < 0 || got >= n {
				t.Fatalf("lookup(%v) = %d, outside [0, %d)", u, got, n)
			}
			// A NaN u compares false with everything: the search runs off
			// the end, the walk stays where it starts. No draw is NaN.
			if corrupt == 0 && u == u {
				if want := lookupRef(c.cum, u); got != want {
					t.Fatalf("lookup(%v) = %d, binary search gives %d (weights %v)", u, got, want, weights)
				}
			}
		}
	})
}

// TestCandidatesMatchReference: after a real decodeStructure call every
// node's candidate list equals, element for element and in order, what the
// pre-guide builder makes of the same seed, previous snapshot and prefix
// sums — at the bench's cap with fan-out, in the rejection-bound regime
// where the 4·cap attempt limit leaves sets short, and at a small cap.
func TestCandidatesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		n, cap   int
		inactive bool
		short    bool // some node must run out of attempts before its set is full
	}{
		{n: 400, cap: 128, inactive: true},
		{n: 151, cap: 128, short: true},
		{n: 40, cap: 7, inactive: true},
	} {
		for _, parallel := range []bool{true, false} {
			t.Run(fmt.Sprintf("N=%d cap=%d parallel=%v", tc.n, tc.cap, parallel), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.n*1000 + tc.cap)))
				cfg := DefaultConfig(tc.n, 0)
				cfg.CandidateCap = tc.cap
				cfg.Seed = 3
				m := New(cfg)
				st := m.newGenState(GenOptions{T: 1, Seed: 11, DynamicNodes: tc.inactive, Parallel: parallel}, false, nil)
				defer st.release()
				if tc.inactive {
					for i := 1; i < tc.n; i += 5 {
						st.active[i] = false
					}
				}
				// History as in TestPairScorerMatchesMLPForward: previous
				// out-neighbours and uneven degrees.
				st.prev = dyngraph.NewSnapshot(tc.n, 0)
				for e := 0; e < 3*tc.n; e++ {
					st.prev.AddEdge(rng.Intn(tc.n), rng.Intn(tc.n))
				}
				for i := range st.degree {
					st.degree[i] = float64(rng.Intn(9))
				}
				s := tensor.Randn(tc.n, cfg.LatentDim+cfg.HiddenDim, 1, rng)
				snap := dyngraph.NewSnapshot(tc.n, 0)
				st.drawStep(snap)
				st.decodeStructure(snap, s, 0)

				ps := st.ps
				if ps.exact {
					t.Fatal("decoding exactly: no candidate list to compare")
				}
				var src splitmixSource
				nrng, mark := rand.New(&src), make([]bool, tc.n)
				full, short := 0, 0
				for i := 0; i < tc.n; i++ {
					got := ps.cands[i*ps.stride:][:ps.cnt[i]]
					if !st.active[i] {
						if len(got) != 0 {
							t.Fatalf("inactive node %d has %d candidates", i, len(got))
						}
						continue
					}
					src.Seed(st.seeds[i])
					want := m.candidatesRef(make([]int, 0, ps.stride), i, st.prev, st.cdf.cum, st.cdf.total, nrng, mark)
					if !slices.Equal(got, want) {
						t.Fatalf("node %d: candidates\n%v\nreference\n%v", i, got, want)
					}
					if len(got) == tc.cap {
						full++
					} else {
						short++
					}
				}
				if full == 0 || (short > 0) != tc.short {
					t.Fatalf("%d full sets, %d short: not the regime this case is for", full, short)
				}
			})
		}
	}
}
