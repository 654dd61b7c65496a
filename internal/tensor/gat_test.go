package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withSelfLoops returns src and dst with the self-loops 0, 1, …, n-1
// appended, the edge lists gnn.GAT.Apply hands the op.
func withSelfLoops(src, dst []int, n int) ([]int, []int) {
	s, d := append([]int(nil), src...), append([]int(nil), dst...)
	for v := 0; v < n; v++ {
		s, d = append(s, v), append(d, v)
	}
	return s, d
}

// gatCase is one input set of the GAT tests: the projected rows wh
// (N×d_h), both attention layers, the edges with their self-loops, and
// dl, the output gradient the loss Σ out⊙dl seeds.
type gatCase struct {
	name                   string
	wh, asw, asb, adw, adb *Matrix
	dl                     *Matrix
	src, dst               []int
}

// newGATCase draws a case over n nodes with d_h = dh. Beside the random
// values it sets what makes the op and the chain part ways if anything
// can: wh's row of the last node is zero and the biases cancel, so that
// node's self-loop logit is exactly 0, on LeakyReLU's kink; dl's first
// row is −0; and one attention weight is exactly zero.
func newGATCase(name string, n, dh int, src, dst []int, seed int64) gatCase {
	rng := rand.New(rand.NewSource(seed))
	s, d := withSelfLoops(src, dst, n)
	c := gatCase{name: name, wh: Randn(n, dh, 1, rng), asw: Randn(dh, 1, 0.7, rng), asb: Randn(1, 1, 0.3, rng),
		adw: Randn(dh, 1, 0.7, rng), dl: Randn(n, dh, 1, rng), src: s, dst: d}
	c.adb = Full(1, 1, -c.asb.Data[0])
	clear(c.wh.Row(n - 1))
	for j := range c.dl.Row(0) {
		c.dl.Row(0)[j] = math.Copysign(0, -1)
	}
	c.adw.Data[dh-1] = 0
	return c
}

// gatMode says which of a gatCase's inputs need gradients.
type gatMode int

const (
	gatTrain      gatMode = iota // everything
	gatFrozenWh                  // the attention layers only
	gatFrozenAttn                // wh only
	gatEval                      // nothing: an eval tape, no Backward
)

func (m gatMode) String() string {
	return [...]string{"train", "wh-frozen", "attn-frozen", "eval"}[m]
}

// run records the case with Tape.GAT (op) or with gatChain and returns
// the output and then the gradients of wh and of the attention weights
// and biases (zeros where frozen).
func (c gatCase) run(op bool, mode gatMode) [][]float64 {
	tp := NewTape()
	defer tp.Reset()
	whLeaf, attnLeaf := tp.Var, tp.Var
	if mode == gatFrozenWh || mode == gatEval {
		whLeaf = tp.Const
	}
	if mode == gatFrozenAttn || mode == gatEval {
		attnLeaf = tp.Const
	}
	leaves := []*Node{whLeaf(c.wh), attnLeaf(c.asw), attnLeaf(c.asb), attnLeaf(c.adw), attnLeaf(c.adb)}
	n := c.wh.Rows
	var o *Node
	if op {
		o = tp.GAT(leaves[0], leaves[1], leaves[2], leaves[3], leaves[4], c.src, c.dst, n)
	} else {
		o = gatChain(tp, leaves[0], leaves[1], leaves[2], leaves[3], leaves[4], c.src, c.dst, n)
	}
	vals := [][]float64{append([]float64(nil), o.Value.Data...)}
	if mode == gatEval {
		return vals
	}
	tp.Backward(tp.SumAll(tp.Mul(o, tp.Const(c.dl))))
	for _, l := range leaves {
		g := make([]float64, len(l.Value.Data))
		if l.Grad != nil {
			copy(g, l.Grad.Data)
		}
		vals = append(vals, g)
	}
	return vals
}

// TestGradGAT checks the op against finite differences on wh and all
// four attention parameters. The first case repeats the pair 0→1, gives
// node 4 no in-edge but its self-loop (whose logit newGATCase puts exactly
// on LeakyReLU's kink: a one-edge softmax passes no gradient to it, so the
// differences stay smooth there) and seeds a −0 output-gradient row; the
// second is E = N, self-loops only.
func TestGradGAT(t *testing.T) {
	cases := []gatCase{
		newGATCase("mixed", 5, 3, []int{0, 2, 0, 3, 1, 2}, []int{1, 1, 1, 0, 3, 3}, 141),
		newGATCase("E=N", 4, 2, nil, nil, 142),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.wh.Rows
			checkGrad(t, []*Matrix{c.wh, c.asw, c.asb, c.adw, c.adb}, func(tp *Tape, v []*Node) *Node {
				return tp.SumAll(tp.Mul(tp.GAT(v[0], v[1], v[2], v[3], v[4], c.src, c.dst, n), tp.Const(c.dl)))
			})
		})
	}
}

// TestGATMatchesChain holds GAT bit for bit against the chain it replaced,
// on every compiled backend against the chain on purego: the output and
// the gradients of wh and of both attention layers, also with wh frozen,
// with the attention layers frozen, and on an eval tape. The decoder-shaped
// case has E > 2·pairMLPChunk at d_h = 16; the small one d_h = 3, a
// repeated pair and a node reached only by its self-loop. In both, the
// self-loop of the last node sits exactly on LeakyReLU's kink, and in the
// large one that node has in-edges too, so the kink's slope reaches the
// gradients.
func TestGATMatchesChain(t *testing.T) {
	active := ActiveBackend()
	defer SetBackend(active)
	rng := rand.New(rand.NewSource(143))
	const n = 94
	var src, dst []int
	for k := 0; k < 600; k++ {
		src, dst = append(src, rng.Intn(n)), append(dst, rng.Intn(n))
	}
	src, dst = append(src, 3, 7), append(dst, n-1, n-1)
	cases := []gatCase{
		newGATCase("decoder", n, 16, src, dst, 144),
		newGATCase("dh3", 6, 3, []int{0, 2, 0, 3, 1, 2, 0}, []int{1, 1, 1, 0, 3, 3, 2}, 145),
	}
	if e := len(cases[0].src); e <= 2*pairMLPChunk {
		t.Fatalf("decoder-shaped case has %d edges, want more than two chunks", e)
	}
	labels := []string{"out", "dwh", "daSrcW", "daSrcB", "daDstW", "daDstB"}
	for _, c := range cases {
		for _, mode := range []gatMode{gatTrain, gatFrozenWh, gatFrozenAttn, gatEval} {
			if err := SetBackend("purego"); err != nil {
				t.Fatal(err)
			}
			want := c.run(false, mode)
			for _, name := range BackendNames() {
				t.Run(fmt.Sprintf("%s/%s/%v", c.name, name, mode), func(t *testing.T) {
					if err := SetBackend(name); err != nil {
						t.Fatal(err)
					}
					got := c.run(true, mode)
					for i := range want {
						if j, ok := sameBits(got[i], want[i]); !ok {
							t.Fatalf("%s[%d] = %v, chain %v", labels[i], j, got[i][j], want[i][j])
						}
					}
				})
			}
		}
	}
}
