package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGradAffineSum checks the op against finite differences, for every
// fused activation: one term reading a block in the middle of its weight;
// two terms tiling one weight (the posterior's [ε ‖ H]); three terms, two
// blocks of one weight beside a whole second one (a GRU gate); one node
// in two terms over both halves of a weight (the uni-flow ablation's
// [h ‖ h]); and a frozen weight and a frozen input, recorded as constants
// beside differentiable terms.
func TestGradAffineSum(t *testing.T) {
	frozenW, frozenX := rnd(5, 2, 211), rnd(4, 3, 212)
	cases := []struct {
		name   string
		params []*Matrix
		build  func(tp *Tape, v []*Node, act Act) *Node
	}{
		{"one-term", []*Matrix{rnd(4, 3, 201), rnd(6, 2, 202), rnd(1, 2, 203)}, func(tp *Tape, v []*Node, act Act) *Node {
			return tp.AffineSum(v[2], act, Term{X: v[0], W: v[1], Off: 2})
		}},
		{"two-terms", []*Matrix{rnd(4, 3, 204), rnd(4, 2, 205), rnd(5, 2, 206), rnd(1, 2, 207)}, func(tp *Tape, v []*Node, act Act) *Node {
			return tp.AffineSum(v[3], act, Term{X: v[0], W: v[2]}, Term{X: v[1], W: v[2], Off: 3})
		}},
		{"three-terms", []*Matrix{rnd(4, 2, 208), rnd(4, 3, 209), rnd(5, 2, 210), rnd(4, 4, 213), rnd(4, 2, 214), rnd(1, 2, 215)},
			func(tp *Tape, v []*Node, act Act) *Node {
				return tp.AffineSum(v[5], act, Term{X: v[0], W: v[2]}, Term{X: v[1], W: v[2], Off: 2}, Term{X: v[3], W: v[4]})
			}},
		{"shared-input", []*Matrix{rnd(4, 3, 216), rnd(6, 2, 217), rnd(1, 2, 218)}, func(tp *Tape, v []*Node, act Act) *Node {
			return tp.AffineSum(v[2], act, Term{X: v[0], W: v[1]}, Term{X: v[0], W: v[1], Off: 3})
		}},
		{"frozen-weight", []*Matrix{rnd(4, 3, 219), rnd(4, 2, 220), rnd(1, 2, 221)}, func(tp *Tape, v []*Node, act Act) *Node {
			return tp.AffineSum(v[2], act, Term{X: v[0], W: tp.Const(frozenW)}, Term{X: v[0], W: v[1], Off: 1})
		}},
		{"frozen-input", []*Matrix{rnd(4, 2, 222), rnd(5, 2, 223), rnd(1, 2, 224)}, func(tp *Tape, v []*Node, act Act) *Node {
			return tp.AffineSum(v[2], act, Term{X: tp.Const(frozenX), W: v[1]}, Term{X: v[0], W: v[1], Off: 3})
		}},
	}
	for _, tc := range cases {
		for _, a := range fusableActs {
			t.Run(tc.name+"/"+a.name, func(t *testing.T) {
				checkGrad(t, tc.params, func(tp *Tape, v []*Node) *Node {
					return tp.MeanAll(tc.build(tp, v, a.act))
				})
			})
		}
	}
}

// affineSumCase is one input set of TestAffineSumMatchesConcat: a linear
// layer over [x₁ ‖ … ‖ x_k] with weight w, plus h·u when u is set, the
// shape of the GRU's gates. share makes the last part the first one
// again, as in the uni-flow ablation's [h ‖ h].
type affineSumCase struct {
	name  string
	xs    []*Matrix
	w, b  *Matrix
	h, u  *Matrix
	dl    *Matrix
	share bool
}

// newAffineSumCase draws a case with parts of the given widths over n
// rows and out columns. Beside the random values it sets what makes
// kernels differ if any can: an exactly zero input entry (GemmNN/GemmTN
// skip it) and an all-zero row of the loss weights.
func newAffineSumCase(name string, n, out int, widths []int, hidden int, share bool, seed int64) affineSumCase {
	rng := rand.New(rand.NewSource(seed))
	c := affineSumCase{name: name, share: share}
	rows := 0
	for i, w := range widths {
		if share && i == len(widths)-1 {
			w = widths[0]
		}
		x := Randn(n, w, 1, rng)
		x.Data[i] = 0
		c.xs = append(c.xs, x)
		rows += w
	}
	c.w, c.b = Randn(rows, out, 0.5, rng), Randn(1, out, 0.3, rng)
	if hidden > 0 {
		c.h, c.u = Randn(n, hidden, 1, rng), Randn(hidden, out, 0.5, rng)
	}
	c.dl = Randn(n, out, 1, rng)
	clear(c.dl.Row(n / 2))
	return c
}

// run records the layer with AffineSum (op) or with ConcatCols then
// Affine or Affine2, and returns its output and then the gradient of
// every leaf: each distinct part, w (zeros when frozen), b, and h and u
// when present.
func (c affineSumCase) run(op, frozen bool, act Act) [][]float64 {
	tp := NewTape()
	defer tp.Reset()
	var parts, leaves []*Node
	for i, x := range c.xs {
		if c.share && i == len(c.xs)-1 {
			parts = append(parts, parts[0])
			continue
		}
		parts = append(parts, tp.Var(x))
		leaves = append(leaves, parts[i])
	}
	w := tp.Var(c.w)
	if frozen {
		w = tp.Const(c.w)
	}
	b := tp.Var(c.b)
	leaves = append(leaves, w, b)
	var h, u *Node
	if c.u != nil {
		h, u = tp.Var(c.h), tp.Var(c.u)
		leaves = append(leaves, h, u)
	}
	var o *Node
	switch {
	case op:
		var terms []Term
		off := 0
		for _, p := range parts {
			terms = append(terms, Term{X: p, W: w, Off: off})
			off += p.Value.Cols
		}
		if u != nil {
			terms = append(terms, Term{X: h, W: u})
		}
		o = tp.AffineSum(b, act, terms...)
	case u != nil:
		o = tp.Affine2(tp.ConcatCols(parts...), w, h, u, b, act)
	default:
		o = tp.Affine(tp.ConcatCols(parts...), w, b, act)
	}
	vals := [][]float64{append([]float64(nil), o.Value.Data...)}
	tp.Backward(tp.SumAll(tp.Mul(o, tp.Const(c.dl))))
	for _, n := range leaves {
		g := make([]float64, len(n.Value.Data))
		if n.Grad != nil {
			copy(g, n.Grad.Data)
		}
		vals = append(vals, g)
	}
	return vals
}

// TestAffineSumMatchesConcat holds AffineSum bit for bit against the
// ConcatCols + Affine/Affine2 form it replaces, the output and every
// leaf's gradient, on every compiled backend against that form on purego,
// for every fused activation and also with the weight frozen. The cases
// are the model's: one part (an MLP's later layers), the posterior's two,
// the GRU gate's three beside h·U, the uni-flow ablation's shared part,
// and a wide case whose products cross MatMulInto's row-parallel
// threshold.
func TestAffineSumMatchesConcat(t *testing.T) {
	active := ActiveBackend()
	defer SetBackend(active)
	cases := []affineSumCase{
		newAffineSumCase("one", 7, 3, []int{5}, 0, false, 231),
		newAffineSumCase("posterior", 94, 16, []int{16, 16}, 0, false, 232),
		newAffineSumCase("gru", 94, 16, []int{16, 8, 4}, 16, false, 233),
		newAffineSumCase("shared", 9, 4, []int{6, 6}, 0, true, 234),
		newAffineSumCase("wide", 160, 64, []int{64, 32}, 24, false, 235),
	}
	for _, c := range cases {
		for _, a := range fusableActs {
			for _, frozen := range []bool{false, true} {
				if err := SetBackend("purego"); err != nil {
					t.Fatal(err)
				}
				want := c.run(false, frozen, a.act)
				for _, name := range BackendNames() {
					t.Run(fmt.Sprintf("%s/%s/%s/frozen=%v", c.name, a.name, name, frozen), func(t *testing.T) {
						if err := SetBackend(name); err != nil {
							t.Fatal(err)
						}
						got := c.run(true, frozen, a.act)
						for i := range want {
							if len(got[i]) != len(want[i]) {
								t.Fatalf("value set %d: %d values, concat form %d", i, len(got[i]), len(want[i]))
							}
							if j, ok := sameBits(got[i], want[i]); !ok {
								t.Fatalf("value set %d [%d] = %v, concat form %v", i, j, got[i][j], want[i][j])
							}
						}
					})
				}
			}
		}
	}
}
