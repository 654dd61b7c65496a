package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad approximates d loss/d m[i] by central differences, where
// forward rebuilds the computation from scratch on a fresh tape.
func numericGrad(m *Matrix, forward func() float64) *Matrix {
	const h = 1e-5
	g := New(m.Rows, m.Cols)
	for i := range m.Data {
		orig := m.Data[i]
		m.Data[i] = orig + h
		up := forward()
		m.Data[i] = orig - h
		down := forward()
		m.Data[i] = orig
		g.Data[i] = (up - down) / (2 * h)
	}
	return g
}

// checkGrad runs forward once with gradients, then compares against
// finite differences for every listed parameter.
func checkGrad(t *testing.T, params []*Matrix, build func(tp *Tape, vars []*Node) *Node) {
	t.Helper()
	tp := NewTape()
	vars := make([]*Node, len(params))
	for i, p := range params {
		vars[i] = tp.Var(p)
	}
	loss := build(tp, vars)
	tp.Backward(loss)

	forward := func() float64 {
		tp2 := NewTape()
		vs := make([]*Node, len(params))
		for i, p := range params {
			vs[i] = tp2.Var(p)
		}
		return build(tp2, vs).Value.Data[0]
	}
	for pi, p := range params {
		want := numericGrad(p, forward)
		got := vars[pi].Grad
		if got == nil {
			got = New(p.Rows, p.Cols)
		}
		for i := range want.Data {
			diff := math.Abs(want.Data[i] - got.Data[i])
			scale := math.Max(1, math.Abs(want.Data[i]))
			if diff/scale > 1e-4 {
				t.Fatalf("param %d entry %d: analytic %g vs numeric %g", pi, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func rnd(rows, cols int, seed int64) *Matrix {
	return Randn(rows, cols, 0.7, rand.New(rand.NewSource(seed)))
}

func TestGradAdd(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(3, 2, 1), rnd(3, 2, 2)}, func(tp *Tape, v []*Node) *Node {
		return tp.MeanAll(tp.Mul(tp.Add(v[0], v[1]), tp.Add(v[0], v[1])))
	})
}

func TestGradSub(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(2, 3, 3), rnd(2, 3, 4)}, func(tp *Tape, v []*Node) *Node {
		d := tp.Sub(v[0], v[1])
		return tp.SumAll(tp.Mul(d, d))
	})
}

func TestGradMatMul(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(3, 4, 5), rnd(4, 2, 6)}, func(tp *Tape, v []*Node) *Node {
		return tp.SumAll(tp.Tanh(tp.MatMul(v[0], v[1])))
	})
}

func TestGradSigmoidTanhRelu(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(2, 5, 7)}, func(tp *Tape, v []*Node) *Node {
		a := tp.Sigmoid(v[0])
		b := tp.Tanh(v[0])
		c := tp.LeakyReLU(v[0])
		return tp.SumAll(tp.Add(tp.Mul(a, b), c))
	})
}

func TestGradExp(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(2, 3, 8)}, func(tp *Tape, v []*Node) *Node {
		return tp.SumAll(tp.Exp(v[0]))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	w := rnd(3, 4, 99)
	checkGrad(t, []*Matrix{rnd(3, 4, 9)}, func(tp *Tape, v []*Node) *Node {
		s := tp.SoftmaxRows(v[0])
		return tp.SumAll(tp.Mul(s, tp.Const(w)))
	})
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	tp := NewTape()
	s := tp.SoftmaxRows(tp.Const(rnd(5, 7, 10)))
	for i := 0; i < 5; i++ {
		sum := 0.0
		for _, v := range s.Value.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestGradAddRowVec(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(4, 3, 11), rnd(1, 3, 12)}, func(tp *Tape, v []*Node) *Node {
		return tp.SumAll(tp.Sigmoid(tp.AddRowVec(v[0], v[1])))
	})
}

func TestGradMulColVec(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(4, 3, 13), rnd(4, 1, 14)}, func(tp *Tape, v []*Node) *Node {
		return tp.SumAll(tp.Tanh(tp.MulColVec(v[0], v[1])))
	})
}

func TestGradConcatSlice(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(3, 2, 15), rnd(3, 4, 16)}, func(tp *Tape, v []*Node) *Node {
		c := tp.ConcatCols(v[0], v[1])
		left := tp.SliceCols(c, 0, 3)
		right := tp.SliceCols(c, 3, 6)
		return tp.SumAll(tp.Mul(left, right))
	})
}

func TestGradGatherScatter(t *testing.T) {
	idx := []int{2, 0, 2, 1}
	checkGrad(t, []*Matrix{rnd(3, 2, 17)}, func(tp *Tape, v []*Node) *Node {
		g := tp.GatherRows(v[0], idx)
		s := tp.ScatterAddRows(g, []int{0, 1, 1, 2}, 3)
		return tp.SumAll(tp.Sigmoid(s))
	})
}

func TestGradTranspose(t *testing.T) {
	for _, shape := range [][2]int{{3, 4}, {1, 4}, {3, 1}} {
		w := rnd(shape[1], shape[0], 120)
		checkGrad(t, []*Matrix{rnd(shape[0], shape[1], 121)}, func(tp *Tape, v []*Node) *Node {
			return tp.SumAll(tp.Mul(tp.Tanh(tp.Transpose(v[0])), tp.Const(w)))
		})
	}
}

// TestGradPairDiffT checks the pair-difference op against finite
// differences. The long pair list repeats a src (0), hits node 1 from
// three pairs on both sides, leaves node 3 in no pair (its gradient column
// must stay zero) and holds a self pair (2,2: a zero difference); the short
// one is E=1. lo=3 windows the op onto the last two rows of a five-row pT,
// so the rows in front of the window must receive no gradient either.
func TestGradPairDiffT(t *testing.T) {
	pairs := []struct{ src, dst []int }{
		{[]int{0, 0, 2, 1, 2}, []int{1, 2, 1, 0, 2}},
		{[]int{2}, []int{0}},
	}
	for _, a := range fusableActs {
		for _, lo := range []int{0, 3} {
			for _, pr := range pairs {
				w := rnd(2, len(pr.src), 122)
				checkGrad(t, []*Matrix{rnd(5, 4, 123), rnd(1, 2, 124)}, func(tp *Tape, v []*Node) *Node {
					return tp.SumAll(tp.Mul(tp.PairDiffT(v[0], v[1], lo, pr.src, pr.dst, a.act), tp.Const(w)))
				})
			}
		}
	}
}

// TestPairDiffTMatchesGatherSubAffine pins the op to the formulation it
// replaces: gather both endpoints' rows of S, subtract, Affine. Only the
// first layer's rounding may differ (the product is taken per node instead
// of per difference).
func TestPairDiffTMatchesGatherSubAffine(t *testing.T) {
	const n, ds, d = 6, 5, 3
	src, dst := []int{0, 0, 4, 1, 5, 3}, []int{1, 2, 1, 0, 5, 4}
	s, w1, b1 := rnd(n, ds, 125), rnd(ds, d, 126), rnd(1, d, 127)
	tp := NewTape()
	sv, wv, bv := tp.Const(s), tp.Const(w1), tp.Const(b1)
	want := tp.Affine(tp.Sub(tp.GatherRows(sv, src), tp.GatherRows(sv, dst)), wv, bv, ActLeakyReLU)
	got := tp.PairDiffT(tp.Transpose(tp.MatMul(sv, wv)), bv, 0, src, dst, ActLeakyReLU)
	for k := range src {
		for r := 0; r < d; r++ {
			if diff := math.Abs(got.Value.At(r, k) - want.Value.At(k, r)); diff > 1e-14 {
				t.Fatalf("pair %d unit %d: PairDiffT %g vs Affine %g", k, r, got.Value.At(r, k), want.Value.At(k, r))
			}
		}
	}
}

func TestGradSpMM(t *testing.T) {
	s := NewCSR(3, 3, []int{0, 1, 1, 2}, []int{1, 0, 2, 2})
	checkGrad(t, []*Matrix{rnd(3, 2, 18)}, func(tp *Tape, v []*Node) *Node {
		return tp.SumAll(tp.Tanh(tp.SpMM(s, v[0])))
	})
}

func TestGradGIN(t *testing.T) {
	a := NewCSR(3, 3, []int{0, 1, 1, 2}, []int{1, 0, 2, 2})
	b := NewCSR(3, 3, []int{0, 2, 2, 0}, []int{2, 0, 1, 2})
	for _, adj := range [][]*CSR{{a}, {a, b}} {
		checkGrad(t, []*Matrix{rnd(3, 2, 18), rnd(1, 1, 19)}, func(tp *Tape, v []*Node) *Node {
			return tp.SumAll(tp.Tanh(tp.GIN(v[0], v[1], adj...)))
		})
	}
}

// randCSR returns an n×n sparse pattern with about deg entries per row,
// some of them repeated.
func randCSR(n, deg int, rng *rand.Rand) *CSR {
	var ri, ci []int
	for i := 0; i < n; i++ {
		for k := rng.Intn(2 * deg); k > 0; k-- {
			ri, ci = append(ri, i), append(ci, rng.Intn(n))
		}
	}
	return NewCSR(n, n, ri, ci)
}

// TestGINMatchesUnfusedChain holds GIN bit for bit against the chain it
// replaces in the bi-flow encoder — AddScalar(ε, 1), a GatherRows
// broadcast, MulColVec, the SpMMs and Add — with one CSR (a directional
// stream) and two (the undirected ablation): the forward value, dh and
// dε. The chain stays here as the reference. The large size crosses
// spmmParallelFlops, so the SpMMs fan out.
func TestGINMatchesUnfusedChain(t *testing.T) {
	for _, size := range []struct{ n, d int }{{37, 5}, {400, 16}} {
		rng := rand.New(rand.NewSource(int64(size.n)))
		h, eps := Randn(size.n, size.d, 0.7, rng), Randn(1, 1, 0.3, rng)
		w := Randn(size.n, size.d, 1, rng)
		a, b := randCSR(size.n, 6, rng), randCSR(size.n, 6, rng)
		for _, adj := range [][]*CSR{{a}, {a, b}} {
			run := func(agg func(tp *Tape, hv, ev *Node) *Node) (out, dh, de []float64) {
				tp := NewTape()
				hv, ev := tp.Var(h), tp.Var(eps)
				o := agg(tp, hv, ev)
				tp.Keep(o)
				tp.Backward(tp.SumAll(tp.Tanh(tp.Mul(o, tp.Const(w)))))
				out = append(out, o.Value.Data...)
				dh, de = append(dh, hv.Grad.Data...), append(de, ev.Grad.Data...)
				tp.Reset()
				return out, dh, de
			}
			wantOut, wantDh, wantDe := run(func(tp *Tape, hv, ev *Node) *Node {
				self := tp.MulColVec(hv, tp.GatherRows(tp.AddScalar(ev, 1), make([]int, size.n)))
				agg := tp.SpMM(adj[0], hv)
				if len(adj) == 2 {
					agg = tp.Add(agg, tp.SpMM(adj[1], hv))
				}
				return tp.Add(self, agg)
			})
			gotOut, gotDh, gotDe := run(func(tp *Tape, hv, ev *Node) *Node {
				return tp.GIN(hv, ev, adj...)
			})
			for _, c := range []struct {
				name      string
				got, want []float64
			}{{"value", gotOut, wantOut}, {"dh", gotDh, wantDh}, {"deps", gotDe, wantDe}} {
				if i, ok := sameBits(c.got, c.want); !ok {
					t.Fatalf("n=%d csrs=%d: GIN %s[%d] = %v, chain %v", size.n, len(adj), c.name, i, c.got[i], c.want[i])
				}
			}
		}
	}
}

func TestGradSegmentSoftmax(t *testing.T) {
	seg := []int{0, 0, 1, 1, 1}
	w := rnd(5, 1, 20)
	checkGrad(t, []*Matrix{rnd(5, 1, 19)}, func(tp *Tape, v []*Node) *Node {
		s := tp.SegmentSoftmax(v[0], seg, 2)
		return tp.SumAll(tp.Mul(s, tp.Const(w)))
	})
}

func TestSegmentSoftmaxNormalised(t *testing.T) {
	tp := NewTape()
	seg := []int{0, 1, 0, 1, 0}
	s := tp.SegmentSoftmax(tp.Const(rnd(5, 1, 21)), seg, 2)
	sums := make([]float64, 2)
	for k, sg := range seg {
		sums[sg] += s.Value.Data[k]
	}
	for i, v := range sums {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("segment %d sums to %g", i, v)
		}
	}
}

func TestGradSumRowsAndReductions(t *testing.T) {
	checkGrad(t, []*Matrix{rnd(3, 4, 22)}, func(tp *Tape, v []*Node) *Node {
		r := tp.SumRows(tp.Mul(v[0], v[0]))
		return tp.MeanAll(r)
	})
}

func TestGradBCEWithLogits(t *testing.T) {
	targets := FromSlice(2, 3, []float64{1, 0, 1, 0, 1, 0})
	checkGrad(t, []*Matrix{rnd(2, 3, 23)}, func(tp *Tape, v []*Node) *Node {
		return tp.BCEWithLogits(v[0], targets)
	})
}

func TestGradBCEProb(t *testing.T) {
	targets := FromSlice(2, 2, []float64{1, 0, 0, 1})
	probs := FromSlice(2, 2, []float64{0.7, 0.3, 0.4, 0.9})
	checkGrad(t, []*Matrix{probs}, func(tp *Tape, v []*Node) *Node {
		return tp.BCEProb(v[0], targets)
	})
}

func TestGradSCELoss(t *testing.T) {
	x := rnd(3, 4, 24)
	checkGrad(t, []*Matrix{rnd(3, 4, 25)}, func(tp *Tape, v []*Node) *Node {
		return tp.SCELoss(v[0], x, 2)
	})
}

func TestGradMSELoss(t *testing.T) {
	x := rnd(3, 4, 26)
	checkGrad(t, []*Matrix{rnd(3, 4, 27)}, func(tp *Tape, v []*Node) *Node {
		return tp.MSELoss(v[0], x)
	})
}

func TestGradGaussianKL(t *testing.T) {
	params := []*Matrix{rnd(2, 3, 28), rnd(2, 3, 29), rnd(2, 3, 30), rnd(2, 3, 31)}
	checkGrad(t, params, func(tp *Tape, v []*Node) *Node {
		return tp.GaussianKL(v[0], v[1], v[2], v[3])
	})
}

func TestGaussianKLZeroForIdenticalDistributions(t *testing.T) {
	tp := NewTape()
	mu := tp.Const(rnd(2, 4, 32))
	ls := tp.Const(rnd(2, 4, 33))
	kl := tp.GaussianKL(mu, ls, mu, ls)
	if math.Abs(kl.Value.Data[0]) > 1e-10 {
		t.Fatalf("KL(q||q) = %g, want 0", kl.Value.Data[0])
	}
}

func TestGaussianKLNonNegative(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tp := NewTape()
		kl := tp.GaussianKL(
			tp.Const(rnd(2, 3, seed)), tp.Const(rnd(2, 3, seed+100)),
			tp.Const(rnd(2, 3, seed+200)), tp.Const(rnd(2, 3, seed+300)))
		if kl.Value.Data[0] < -1e-10 {
			t.Fatalf("seed %d: KL = %g < 0", seed, kl.Value.Data[0])
		}
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar loss")
		}
	}()
	tp := NewTape()
	v := tp.Var(rnd(2, 2, 34))
	tp.Backward(v)
}

func TestConstReceivesNoGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Const(rnd(2, 2, 35))
	v := tp.Var(rnd(2, 2, 36))
	loss := tp.SumAll(tp.Mul(c, v))
	tp.Backward(loss)
	if c.Grad != nil {
		t.Fatal("const node must not accumulate gradient")
	}
	if v.Grad == nil {
		t.Fatal("var node must accumulate gradient")
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// y = sum(x) + sum(x) must give grad 2 everywhere.
	m := rnd(2, 2, 37)
	tp := NewTape()
	v := tp.Var(m)
	loss := tp.Add(tp.SumAll(v), tp.SumAll(v))
	tp.Backward(loss)
	for _, g := range v.Grad.Data {
		if math.Abs(g-2) > 1e-12 {
			t.Fatalf("grad = %v, want 2", g)
		}
	}
}

func TestTapeResetReuse(t *testing.T) {
	tp := NewTape()
	m := rnd(2, 2, 38)
	v := tp.Var(m)
	tp.Backward(tp.SumAll(v))
	if tp.Len() == 0 {
		t.Fatal("tape should contain nodes")
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatal("Reset must clear the tape")
	}
	v2 := tp.Var(m)
	tp.Backward(tp.MeanAll(v2))
	if v2.Grad == nil {
		t.Fatal("tape reuse after Reset failed")
	}
}

func TestSigmoidStability(t *testing.T) {
	if v := Sigmoid(1000); math.Abs(v-1) > 1e-12 {
		t.Fatalf("Sigmoid(1000) = %v", v)
	}
	if v := Sigmoid(-1000); v != 0 && v > 1e-300 {
		t.Fatalf("Sigmoid(-1000) = %v", v)
	}
	if v := Sigmoid(0); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %v", v)
	}
}

func TestBCEWithLogitsMatchesManual(t *testing.T) {
	tp := NewTape()
	logits := tp.Const(FromSlice(1, 2, []float64{0, 0}))
	targets := FromSlice(1, 2, []float64{1, 0})
	loss := tp.BCEWithLogits(logits, targets)
	want := math.Log(2)
	if math.Abs(loss.Value.Data[0]-want) > 1e-12 {
		t.Fatalf("BCE(0,·) = %v, want ln2", loss.Value.Data[0])
	}
}

// TestSplitTapeMatchesOneTape records loss = Σ s⊙s + Σ u, s = tanh(u),
// u = x·w, once on one tape and once split the way the trainer splits a window: the
// Σ s⊙s branch on a second tape from a leaf over s's value, tied back by a
// Hook that adds the leaf's gradient into s and a Hook that seeds the
// branch from a proxy of its output and runs BackwardSeeded. The parameter
// gradients must agree bit for bit on both executors.
func TestSplitTapeMatchesOneTape(t *testing.T) {
	x, w := rnd(5, 3, 1), rnd(3, 4, 2)
	for _, newTape := range []func() *Tape{NewTape, NewReferenceTape} {
		one := newTape()
		xv, wv := one.Var(x), one.Var(w)
		u := one.MatMul(xv, wv)
		s := one.Tanh(u)
		branch := one.SumAll(one.Mul(s, s))
		one.Backward(one.Add(branch, one.SumAll(u)))
		wantX, wantW := xv.Grad.Clone(), wv.Grad.Clone()
		one.Reset()

		main, sub := newTape(), newTape()
		xv, wv = main.Var(x), main.Var(w)
		u = main.MatMul(xv, wv)
		s = main.Tanh(u)
		leaf := sub.Var(s.Value)
		branch = sub.SumAll(sub.Mul(leaf, leaf))
		sub.Keep(branch)
		var order []string
		main.Hook(func() {
			order = append(order, "join")
			s.AccumulateGrad(leaf.Grad)
		})
		chain := main.SumAll(u)
		var proxy *Node
		main.Hook(func() {
			order = append(order, "dispatch")
			branch.AccumulateGrad(proxy.Grad)
			sub.BackwardSeeded()
		})
		proxy = main.Var(branch.Value)
		main.Backward(main.Add(proxy, chain))
		if len(order) != 2 || order[0] != "dispatch" || order[1] != "join" {
			t.Fatalf("hooks ran as %v, want [dispatch join]", order)
		}
		if !xv.Grad.Equal(wantX, 0) || !wv.Grad.Equal(wantW, 0) {
			t.Fatal("split-tape gradients differ from the one-tape gradients")
		}
		main.Reset()
		sub.Reset()
		if main.LiveBytes() != 0 || sub.LiveBytes() != 0 {
			t.Fatalf("live bytes after Reset: main %d, sub %d", main.LiveBytes(), sub.LiveBytes())
		}
	}
}
