package tensor

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// pairMLPChain is the unfused form of Tape.PairMLP, the chain the Eq. 11
// trainer recorded before the op existed: the hidden block over
// pT = pᵀ (PairDiffT, d_h×E), W₂ᵀ times it, and the transposed bias add.
// pT is the caller's so that two heads share it, as they did.
func pairMLPChain(tp *Tape, pT, b1, w2, b2 *Node, lo int, src, dst []int) *Node {
	hidT := tp.PairDiffT(pT, b1, lo, src, dst, ActLeakyReLU)
	outT := tp.MatMul(tp.Transpose(w2), hidT)
	return tp.AddRowVec(tp.Transpose(outT), b2)
}

// TestGradPairMLP checks the op against finite differences. The long pair
// list repeats a src (0, in two runs), holds a self pair (2,2) and leaves
// node 3 in no pair; the others are E=1 and E=0. lo=4 windows the op onto
// the last three columns of p, so the columns in front must receive no
// gradient. d_h=3 is not a multiple of 4 (the SIMD kernel's tile), one
// W₂ entry is exactly zero, and one row of dLogit is all zero.
func TestGradPairMLP(t *testing.T) {
	pairs := []struct{ src, dst []int }{
		{[]int{0, 0, 2, 1, 2, 0}, []int{1, 2, 1, 0, 2, 4}},
		{[]int{2}, []int{0}},
		{[]int{}, []int{}},
	}
	for _, k := range []int{1, 2, 3} {
		for _, lo := range []int{0, 4} {
			for _, pr := range pairs {
				t.Run(fmt.Sprintf("K=%d/lo=%d/E=%d", k, lo, len(pr.src)), func(t *testing.T) {
					w2 := rnd(3, k, 131)
					w2.Data[1] = 0
					dl := rnd(len(pr.src), k, 132)
					if len(pr.src) > 1 {
						clear(dl.Row(1))
					}
					checkGrad(t, []*Matrix{rnd(5, 7, 133), rnd(1, 3, 134), w2, rnd(1, k, 135)}, func(tp *Tape, v []*Node) *Node {
						return tp.SumAll(tp.Mul(tp.PairMLP(v[0], v[1], v[2], v[3], lo, pr.src, pr.dst), tp.Const(dl)))
					})
				})
			}
		}
	}
}

// pairMLPCase is one input set of TestPairMLPMatchesChain: both Eq. 11
// heads over P = S·W₁ (N×2d_h), the θ head at lo=0 and the α head at
// lo=d_h, each scored against its own dLogit.
type pairMLPCase struct {
	name       string
	s, w1      *Matrix
	b1, w2, b2 [2]*Matrix
	dl         [2]*Matrix
	src, dst   []int
}

// newPairMLPCase draws a case's weights. Beside the random values it sets
// what makes kernels differ if any can: an exactly zero W₂ entry, an all
// zero dLogit row, a zero b₁ entry (so a self pair's hidden unit is
// exactly +0) and two nodes with equal rows of S (their differences are
// exactly zero too).
func newPairMLPCase(name string, n, ds, dh, k int, src, dst []int, seed int64) pairMLPCase {
	rng := rand.New(rand.NewSource(seed))
	c := pairMLPCase{name: name, s: Randn(n, ds, 1, rng), w1: Randn(ds, 2*dh, 0.5, rng), src: src, dst: dst}
	for h := range c.b1 {
		c.b1[h], c.w2[h], c.b2[h] = Randn(1, dh, 0.3, rng), Randn(dh, k, 0.5, rng), Randn(1, k, 0.3, rng)
		c.dl[h] = Randn(len(src), k, 1, rng)
		c.w2[h].Data[h] = 0
		c.b1[h].Data[dh-1] = 0
		if len(src) > 2 {
			clear(c.dl[h].Row(len(src) / 2))
		}
	}
	if n > 2 {
		copy(c.s.Row(2), c.s.Row(1))
	}
	return c
}

// trainerPairs is samplePairs' order: E edges sorted by source, then up
// to q negatives per node grouped by node, so a node's pairs form at most
// two runs of equal src.
func trainerPairs(n, edges, q int, rng *rand.Rand) (src, dst []int) {
	type pair struct{ u, v int }
	es := make([]pair, edges)
	for i := range es {
		es[i] = pair{rng.Intn(n), rng.Intn(n)}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].u < es[j].u })
	for _, e := range es {
		src, dst = append(src, e.u), append(dst, e.v)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < q; j++ {
			if v := rng.Intn(n); v != i {
				src, dst = append(src, i), append(dst, v)
			}
		}
	}
	return src, dst
}

// run records both heads, with PairMLP or with pairMLPChain, and returns
// their outputs and then the gradient of every leaf: S, W₁ (nil when
// frozen), and each head's b₁, W₂ and b₂.
func (c pairMLPCase) run(op, frozen bool) [][]float64 {
	tp := NewTape()
	defer tp.Reset()
	leaf := tp.Var
	if frozen {
		leaf = tp.Const
	}
	sv, w1v := leaf(c.s), leaf(c.w1)
	p := tp.MatMul(sv, w1v)
	var pT *Node
	if !op {
		pT = tp.Transpose(p)
	}
	dh := c.b1[0].Cols
	var vals [][]float64
	leaves := []*Node{sv, w1v}
	var loss *Node
	for h := range c.b1 {
		b1, w2, b2 := tp.Var(c.b1[h]), tp.Var(c.w2[h]), tp.Var(c.b2[h])
		leaves = append(leaves, b1, w2, b2)
		var o *Node
		if op {
			o = tp.PairMLP(p, b1, w2, b2, h*dh, c.src, c.dst)
		} else {
			o = pairMLPChain(tp, pT, b1, w2, b2, h*dh, c.src, c.dst)
		}
		vals = append(vals, append([]float64(nil), o.Value.Data...))
		l := tp.SumAll(tp.Mul(o, tp.Const(c.dl[h])))
		if loss == nil {
			loss = l
		} else {
			loss = tp.Add(loss, l)
		}
	}
	tp.Backward(loss)
	for _, n := range leaves {
		g := make([]float64, len(n.Value.Data))
		if n.Grad != nil {
			copy(g, n.Grad.Data)
		}
		vals = append(vals, g)
	}
	return vals
}

// TestPairMLPMatchesChain holds PairMLP bit for bit against the chain it
// replaced, on every compiled backend against the chain on purego: both
// heads' logits and the gradients of S, W₁ and each head's b₁, W₂ and b₂,
// also with S and W₁ frozen (p needs no gradient). The trainer-shaped case
// has E > pairMLPChunk and d_h = 16, the SIMD kernel's path; the small ones
// take d_h = 6 (its portable fallback), a self pair and a node in no pair,
// E = 1 and E = 0.
func TestPairMLPMatchesChain(t *testing.T) {
	active := ActiveBackend()
	defer SetBackend(active)
	rng := rand.New(rand.NewSource(136))
	src, dst := trainerPairs(94, 300, 5, rng)
	if len(src) <= 2*pairMLPChunk {
		t.Fatalf("trainer-shaped case has %d pairs, want more than two chunks", len(src))
	}
	cases := []pairMLPCase{
		newPairMLPCase("trainer", 94, 10, 16, 2, src, dst, 137),
		newPairMLPCase("dh6-K3", 7, 5, 6, 3, []int{0, 0, 1, 2, 2, 5, 6, 0}, []int{1, 2, 1, 2, 0, 6, 0, 5}, 138),
		newPairMLPCase("E=1", 3, 4, 4, 1, []int{2}, []int{0}, 139),
		newPairMLPCase("E=0", 3, 4, 4, 2, []int{}, []int{}, 140),
	}
	for _, c := range cases {
		for _, frozen := range []bool{false, true} {
			if err := SetBackend("purego"); err != nil {
				t.Fatal(err)
			}
			want := c.run(false, frozen)
			for _, name := range BackendNames() {
				t.Run(fmt.Sprintf("%s/%s/frozen=%v", c.name, name, frozen), func(t *testing.T) {
					if err := SetBackend(name); err != nil {
						t.Fatal(err)
					}
					got := c.run(true, frozen)
					labels := []string{"logits θ", "logits α", "dS", "dW₁", "db₁ θ", "dW₂ θ", "db₂ θ", "db₁ α", "dW₂ α", "db₂ α"}
					for i := range want {
						if len(got[i]) != len(want[i]) {
							t.Fatalf("%s: %d values, chain %d", labels[i], len(got[i]), len(want[i]))
						}
						if j, ok := sameBits(got[i], want[i]); !ok {
							t.Fatalf("%s[%d] = %v, chain %v", labels[i], j, got[i][j], want[i][j])
						}
					}
				})
			}
		}
	}
}
