package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vrdag/internal/dyngraph"
)

// triangle returns a 3-cycle plus one pendant node.
func triangle() *dyngraph.Snapshot {
	s := dyngraph.NewSnapshot(4, 0)
	s.AddEdge(0, 1)
	s.AddEdge(1, 2)
	s.AddEdge(2, 0)
	s.AddEdge(2, 3)
	return s
}

func TestDegrees(t *testing.T) {
	s := triangle()
	in := InDegrees(s)
	out := OutDegrees(s)
	if in[0] != 1 || in[1] != 1 || in[2] != 1 || in[3] != 1 {
		t.Fatalf("InDegrees = %v", in)
	}
	if out[0] != 1 || out[2] != 2 || out[3] != 0 {
		t.Fatalf("OutDegrees = %v", out)
	}
	tot := TotalDegrees(s)
	if tot[2] != 3 || tot[3] != 1 {
		t.Fatalf("TotalDegrees = %v", tot)
	}
}

func TestClusteringTriangle(t *testing.T) {
	s := triangle()
	cc := ClusteringCoefficients(s)
	// Nodes 0 and 1 have the 2 triangle neighbours: cc = 1.
	if math.Abs(cc[0]-1) > 1e-12 || math.Abs(cc[1]-1) > 1e-12 {
		t.Fatalf("cc = %v", cc)
	}
	// Node 2 has neighbours {0,1,3}; only (0,1) linked: cc = 1/3.
	if math.Abs(cc[2]-1.0/3) > 1e-12 {
		t.Fatalf("cc[2] = %v", cc[2])
	}
	if cc[3] != 0 {
		t.Fatalf("pendant cc = %v", cc[3])
	}
	gc := GlobalClustering(s)
	want := (1 + 1 + 1.0/3 + 0) / 4
	if math.Abs(gc-want) > 1e-12 {
		t.Fatalf("GlobalClustering = %v, want %v", gc, want)
	}
}

// clusteringReference is the binary-search form of ClusteringCoefficients:
// every neighbour pair of v is tested for a link by searching the sorted
// neighbour list of the first.
func clusteringReference(s *dyngraph.Snapshot) []float64 {
	nbrs := make([][]int, s.N)
	for v := 0; v < s.N; v++ {
		nbrs[v] = s.UndirectedNeighbors(v)
	}
	has := func(list []int, x int) bool {
		i := sort.SearchInts(list, x)
		return i < len(list) && list[i] == x
	}
	cc := make([]float64, s.N)
	for v := 0; v < s.N; v++ {
		k := len(nbrs[v])
		if k < 2 {
			continue
		}
		links := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if has(nbrs[nbrs[v][i]], nbrs[v][j]) {
					links++
				}
			}
		}
		cc[v] = 2 * float64(links) / float64(k*(k-1))
	}
	return cc
}

// TestClusteringCoefficientsMatchReference: the marked-neighbour count
// finds the same links as the binary search, so every coefficient is the
// same float64, bit for bit.
func TestClusteringCoefficientsMatchReference(t *testing.T) {
	var snaps []*dyngraph.Snapshot
	for seed := int64(0); seed < 6; seed++ {
		g := randomSequence(60+40*int(seed), 0, 2, 150+200*int(seed), seed)
		snaps = append(snaps, g.Snapshots...)
	}
	// A star whose hub 0 also belongs to a 6-clique {0..5}, both directions
	// of some clique edges present, leaves 6..29 pendant.
	star := dyngraph.NewSnapshot(30, 0)
	for v := 1; v < 30; v++ {
		star.AddEdge(0, v)
	}
	for u := 1; u < 6; u++ {
		for w := u + 1; w < 6; w++ {
			star.AddEdge(u, w)
			if (u+w)%2 == 0 {
				star.AddEdge(w, u)
			}
		}
	}
	snaps = append(snaps, star)
	for i, s := range snaps {
		got, want := ClusteringCoefficients(s), clusteringReference(s)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("snapshot %d node %d: cc = %v, reference %v", i, v, got[v], want[v])
			}
		}
	}
}

func TestWedgeCount(t *testing.T) {
	s := triangle()
	// degrees: 2,2,3,1 -> wedges: 1+1+3+0 = 5
	if w := WedgeCount(s); w != 5 {
		t.Fatalf("WedgeCount = %v", w)
	}
}

func TestComponents(t *testing.T) {
	s := dyngraph.NewSnapshot(7, 0)
	s.AddEdge(0, 1)
	s.AddEdge(1, 2)
	s.AddEdge(4, 5)
	// node 3 and 6 isolated
	sizes := ComponentSizes(s)
	if len(sizes) != 2 {
		t.Fatalf("ComponentSizes = %v", sizes)
	}
	if NumComponents(s) != 2 {
		t.Fatalf("NumComponents = %v", NumComponents(s))
	}
	if LargestComponent(s) != 3 {
		t.Fatalf("LargestComponent = %v", LargestComponent(s))
	}
}

func TestComponentsEmptyGraph(t *testing.T) {
	s := dyngraph.NewSnapshot(5, 0)
	if NumComponents(s) != 0 || LargestComponent(s) != 0 {
		t.Fatal("empty graph must have no components")
	}
}

func TestCorenessTriangleWithTail(t *testing.T) {
	s := triangle()
	core := Coreness(s)
	// Triangle nodes have coreness 2, pendant 1.
	if core[0] != 2 || core[1] != 2 || core[2] != 2 {
		t.Fatalf("core = %v", core)
	}
	if core[3] != 1 {
		t.Fatalf("pendant core = %v", core[3])
	}
}

func TestCorenessClique(t *testing.T) {
	n := 6
	s := dyngraph.NewSnapshot(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.AddEdge(i, j)
		}
	}
	for v, c := range Coreness(s) {
		if c != float64(n-1) {
			t.Fatalf("clique node %d coreness %v", v, c)
		}
	}
}

// Property: coreness is bounded by degree, and the k-core subgraph induced
// by nodes with coreness >= k has min degree >= k within itself.
func TestCorenessInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		s := dyngraph.NewSnapshot(n, 0)
		for e := 0; e < n*2; e++ {
			s.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		core := Coreness(s)
		deg := TotalDegrees(s)
		for v := 0; v < n; v++ {
			if core[v] > deg[v] {
				return false
			}
		}
		// verify 2-core property
		k := 2.0
		inCore := make([]bool, n)
		for v := 0; v < n; v++ {
			inCore[v] = core[v] >= k
		}
		for v := 0; v < n; v++ {
			if !inCore[v] {
				continue
			}
			cnt := 0
			for _, u := range s.UndirectedNeighbors(v) {
				if inCore[u] {
					cnt++
				}
			}
			if float64(cnt) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// plSample draws n floor-discretised power-law degrees with the given tail
// exponent (xmin = 1).
func plSample(n int, alpha float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		u := rng.Float64()
		out[i] = math.Floor(math.Pow(1-u, -1/(alpha-1)))
	}
	return out
}

func TestPowerLawExponentOrdering(t *testing.T) {
	// The discrete MLE approximation is biased at dmin=1 (it is only used
	// comparatively between original and generated graphs), but it must
	// order tail heaviness correctly and land in a plausible band.
	heavy := PowerLawExponent(plSample(5000, 2.0, 1))
	mid := PowerLawExponent(plSample(5000, 2.5, 2))
	light := PowerLawExponent(plSample(5000, 3.5, 3))
	if !(heavy < mid && mid < light) {
		t.Fatalf("PLE must be monotone in tail exponent: %v %v %v", heavy, mid, light)
	}
	if mid < 1.2 || mid > 3.2 {
		t.Fatalf("PLE(2.5-tail) = %v far outside plausible band", mid)
	}
}

func TestPowerLawExponentEstimatorConsistent(t *testing.T) {
	// Two samples of the same law must give nearly equal estimates.
	a := PowerLawExponent(plSample(8000, 2.5, 4))
	b := PowerLawExponent(plSample(8000, 2.5, 5))
	if math.Abs(a-b) > 0.1 {
		t.Fatalf("estimator unstable: %v vs %v", a, b)
	}
}

func TestPowerLawExponentDegenerate(t *testing.T) {
	if PowerLawExponent(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
	if PowerLawExponent([]float64{0, 0}) != 0 {
		t.Fatal("all-zero degrees must give 0")
	}
}
