package tensor

import (
	"math/rand"
	"testing"
)

// testMat returns a deterministic pseudo-random r×c leaf matrix. Leaves
// use New (never Get) so the harness's arena-balance check stays exact.
func testMat(r, c int, seed int64) *Matrix {
	m := New(r, c)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// testMatPos is testMat shifted into strictly positive territory
// (probability-like inputs).
func testMatPos(r, c int, seed int64) *Matrix {
	m := testMat(r, c, seed)
	for i, v := range m.Data {
		if v < 0 {
			v = -v
		}
		m.Data[i] = v + 0.1
	}
	return m
}

// testCSR returns a 4×3 pattern with a repeated entry.
func testCSR() *CSR {
	ri := []int{0, 0, 1, 2, 3, 3, 3}
	ci := []int{0, 2, 1, 0, 1, 2, 1}
	return NewCSR(4, 3, ri, ci)
}

// TestSchedEquivAllOps drives every tape op kind (and the aliasing/reuse
// patterns from matrix_test.go) through the differential harness: the
// default tape's lifetime release against the reference tape.
func TestSchedEquivAllOps(t *testing.T) {
	type schedCase struct {
		name  string
		build func(tp *Tape) SchedProbe
	}
	cases := []schedCase{
		{"Add", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 1)), tp.Var(testMat(3, 4, 2))
			o := tp.Add(a, b)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"Sub", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 3)), tp.Var(testMat(3, 4, 4))
			o := tp.Sub(a, b)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"Mul", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 5)), tp.Var(testMat(3, 4, 6))
			o := tp.Mul(a, b)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"Scale", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 4, 7))
			o := tp.Scale(a, -1.7)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"AddScalar", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 4, 8))
			o := tp.AddScalar(a, 0.37)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"AddRowVec", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 9)), tp.Var(testMat(1, 4, 10))
			o := tp.AddRowVec(a, b)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"MulColVec", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 11)), tp.Var(testMat(3, 1, 12))
			o := tp.MulColVec(a, b)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"MatMul", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 13)), tp.Var(testMat(4, 2, 14))
			o := tp.MatMul(a, b)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"SpMM", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 2, 15))
			o := tp.SpMM(testCSR(), a)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"Lerp", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 20)), tp.Var(testMat(3, 4, 21))
			z := tp.Sigmoid(tp.Var(testMat(3, 4, 22)))
			o := tp.Lerp(a, b, z)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"Sigmoid", unaryCase(func(tp *Tape, a *Node) *Node { return tp.Sigmoid(a) })},
		{"Tanh", unaryCase(func(tp *Tape, a *Node) *Node { return tp.Tanh(a) })},
		{"ReLU", unaryCase(func(tp *Tape, a *Node) *Node { return tp.ReLU(a) })},
		{"LeakyReLU", unaryCase(func(tp *Tape, a *Node) *Node { return tp.LeakyReLU(a) })},
		{"Exp", unaryCase(func(tp *Tape, a *Node) *Node { return tp.Exp(a) })},
		{"Sin", unaryCase(func(tp *Tape, a *Node) *Node { return tp.Sin(a) })},
		{"SoftmaxRows", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 5, 24))
			o := tp.SoftmaxRows(a)
			w := tp.Var(testMat(3, 5, 25)) // break softmax's grad symmetry
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, w)), Outputs: []*Node{o}, Leaves: []*Node{a, w}}
		}},
		{"ConcatCols", func(tp *Tape) SchedProbe {
			a, b, c := tp.Var(testMat(3, 2, 26)), tp.Var(testMat(3, 3, 27)), tp.Var(testMat(3, 1, 28))
			o := tp.ConcatCols(a, b, c)
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, o)), Outputs: []*Node{o}, Leaves: []*Node{a, b, c}}
		}},
		{"SliceCols", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 6, 29))
			o := tp.SliceCols(a, 1, 4)
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, o)), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"GatherRows/repeated", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(4, 3, 30))
			o := tp.GatherRows(a, []int{2, 0, 2, 3, 0}) // repeated rows accumulate
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, o)), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"ScatterAddRows/colliding", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(5, 3, 31))
			o := tp.ScatterAddRows(a, []int{1, 0, 1, 2, 0}, 4) // colliding targets
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, o)), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"SegmentSoftmax", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(6, 1, 32))
			o := tp.SegmentSoftmax(a, []int{0, 0, 1, 1, 1, 2}, 3)
			w := tp.Var(testMat(6, 1, 33))
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, w)), Outputs: []*Node{o}, Leaves: []*Node{a, w}}
		}},
		{"Transpose", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 5, 46))
			o := tp.Transpose(a)
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, o)), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"PairDiffT/two-heads", func(tp *Tape) SchedProbe {
			// The trainer's shape: one pT, a head per row window, each
			// head's block feeding a MatMul from the left.
			pT, w := tp.Var(testMat(4, 5, 47)), tp.Var(testMat(2, 2, 48))
			b0, b1 := tp.Var(testMat(1, 2, 49)), tp.Var(testMat(1, 2, 50))
			src, dst := []int{0, 0, 3, 1, 4, 2}, []int{1, 3, 1, 0, 4, 0}
			h0 := tp.PairDiffT(pT, b0, 0, src, dst, ActLeakyReLU)
			h1 := tp.PairDiffT(pT, b1, 2, src, dst, ActTanh)
			o := tp.Add(tp.MatMul(w, h0), tp.MatMul(w, h1))
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, o)), Outputs: []*Node{o, h0, h1}, Leaves: []*Node{pT, w, b0, b1}}
		}},
		{"PairMLP/two-heads", func(tp *Tape) SchedProbe {
			// The trainer's shape: one P = S·W₁, a head per column window,
			// the second head's weights shared with the first.
			s, w1 := tp.Var(testMat(6, 3, 51)), tp.Var(testMat(3, 4, 52))
			b0, b1 := tp.Var(testMat(1, 2, 53)), tp.Var(testMat(1, 2, 54))
			w2, b2 := tp.Var(testMat(2, 3, 55)), tp.Var(testMat(1, 3, 56))
			src, dst := []int{0, 0, 3, 1, 4, 2}, []int{1, 3, 1, 0, 4, 0}
			p := tp.MatMul(s, w1)
			o0 := tp.PairMLP(p, b0, w2, b2, 0, src, dst)
			o1 := tp.PairMLP(p, b1, w2, b2, 2, src, dst)
			o := tp.Add(o0, tp.Tanh(o1))
			return SchedProbe{Loss: tp.SumAll(tp.Mul(o, o)), Outputs: []*Node{o, o0, o1}, Leaves: []*Node{s, w1, b0, b1, w2, b2}}
		}},
		{"SumAll", unaryCase(func(tp *Tape, a *Node) *Node { return tp.SumAll(a) })},
		{"MeanAll", unaryCase(func(tp *Tape, a *Node) *Node { return tp.MeanAll(a) })},
		{"SumRows", unaryCase(func(tp *Tape, a *Node) *Node { return tp.SumRows(a) })},
		{"BCEWithLogits", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(4, 3, 34))
			o := tp.BCEWithLogits(a, testMatPos(4, 3, 35))
			return SchedProbe{Loss: o, Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"BCEProb", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(4, 3, 36))
			p := tp.Sigmoid(a)
			o := tp.BCEProb(p, testMatPos(4, 3, 37))
			return SchedProbe{Loss: o, Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"SCELoss", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(4, 3, 38))
			o := tp.SCELoss(a, testMat(4, 3, 39), 2)
			return SchedProbe{Loss: o, Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"MSELoss", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(4, 3, 40))
			o := tp.MSELoss(a, testMat(4, 3, 41))
			return SchedProbe{Loss: o, Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"GaussianKL", func(tp *Tape) SchedProbe {
			mq, sq := tp.Var(testMat(4, 2, 42)), tp.Var(testMat(4, 2, 43))
			mp, sp := tp.Var(testMat(4, 2, 44)), tp.Var(testMat(4, 2, 45))
			o := tp.GaussianKL(mq, sq, mp, sp)
			return SchedProbe{Loss: o, Outputs: []*Node{o}, Leaves: []*Node{mq, sq, mp, sp}}
		}},

		// Elementwise consumers over MatMul/Affine/SpMM/Scale producers: the
		// chains the deleted backward-time fusion pass (PR 23) rewrote, kept
		// as lifetime cases under their old names.
		{"fuse/sigmoid-after-affine", func(tp *Tape) SchedProbe {
			x, w, b := tp.Var(testMat(3, 4, 50)), tp.Var(testMat(4, 2, 51)), tp.Var(testMat(1, 2, 52))
			o := tp.Sigmoid(tp.Affine(x, w, b, ActIdent))
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{x, w, b}}
		}},
		{"fuse/tanh-after-matmul", func(tp *Tape) SchedProbe {
			a, b := tp.Var(testMat(3, 4, 53)), tp.Var(testMat(4, 2, 54))
			o := tp.Tanh(tp.MatMul(a, b))
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a, b}}
		}},
		{"fuse/relu-after-spmm", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 2, 55))
			o := tp.ReLU(tp.SpMM(testCSR(), a))
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"fuse/leaky-after-affine2", func(tp *Tape) SchedProbe {
			x, wx := tp.Var(testMat(3, 4, 56)), tp.Var(testMat(4, 2, 57))
			h, wh := tp.Var(testMat(3, 5, 58)), tp.Var(testMat(5, 2, 59))
			b := tp.Var(testMat(1, 2, 60))
			o := tp.LeakyReLU(tp.Affine2(x, wx, h, wh, b, ActIdent))
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{x, wx, h, wh, b}}
		}},
		{"fuse/scale-chain", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 4, 61))
			o := tp.Scale(tp.AddScalar(tp.Scale(a, 0.5), -1.25), 3)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"fuse/sigmoid-after-scale", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 4, 62))
			o := tp.Sigmoid(tp.Scale(a, 1.5))
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"fuse/blocked-two-consumers", func(tp *Tape) SchedProbe {
			x, w, b := tp.Var(testMat(3, 4, 63)), tp.Var(testMat(4, 2, 64)), tp.Var(testMat(1, 2, 65))
			pre := tp.Affine(x, w, b, ActIdent) // two consumers accumulate into one Grad
			o := tp.Add(tp.Sigmoid(pre), tp.Tanh(pre))
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{x, w, b}}
		}},
		{"fuse/activation-is-loss", func(tp *Tape) SchedProbe {
			// The producer chain ends in the loss itself: the seeded-grad
			// gate must keep the bookkeeping straight.
			a := tp.Var(testMat(1, 1, 66))
			o := tp.Tanh(tp.Scale(a, 0.8))
			return SchedProbe{Loss: o, Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},

		// Aliasing and reuse.
		{"alias/add-self", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 4, 70))
			o := tp.Add(a, a)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"alias/mul-self-square", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(3, 3, 71))
			o := tp.MatMul(a, a)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{a}}
		}},
		{"alias/shared-subexpression", func(tp *Tape) SchedProbe {
			a, b, c := tp.Var(testMat(3, 4, 72)), tp.Var(testMat(3, 4, 73)), tp.Var(testMat(3, 4, 74))
			u := tp.Mul(a, b)
			o := tp.Add(u, tp.Mul(u, c)) // u consumed twice
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o, u}, Leaves: []*Node{a, b, c}}
		}},
		{"alias/affine2-shared-input", func(tp *Tape) SchedProbe {
			x := tp.Var(testMat(3, 4, 75))
			wx, wh := tp.Var(testMat(4, 2, 76)), tp.Var(testMat(4, 2, 77))
			b := tp.Var(testMat(1, 2, 78))
			o := tp.Affine2(x, wx, x, wh, b, ActSigmoid) // same node as both inputs
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{x, wx, wh, b}}
		}},
		{"alias/affinesum-blocks", func(tp *Tape) SchedProbe {
			// A GRU-style gate over [x ‖ y ‖ x], x in two blocks of one
			// weight, beside h·U; x also feeds a later consumer.
			x, y, h := tp.Var(testMat(3, 2, 82)), tp.Var(testMat(3, 3, 83)), tp.Var(testMat(3, 4, 84))
			w, u, b := tp.Var(testMat(7, 2, 85)), tp.Var(testMat(4, 2, 86)), tp.Var(testMat(1, 2, 87))
			o := tp.AffineSum(b, ActSigmoid, Term{X: x, W: w}, Term{X: y, W: w, Off: 2}, Term{X: x, W: w, Off: 5}, Term{X: h, W: u})
			o = tp.Mul(o, x)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{x, y, h, w, u, b}}
		}},
		{"reparameterize", func(tp *Tape) SchedProbe {
			mu, logSig := tp.Var(testMat(3, 2, 79)), tp.Var(testMat(3, 2, 80))
			noise := Get(3, 2)
			copy(noise.Data, testMat(3, 2, 81).Data)
			z := tp.Add(mu, tp.Mul(tp.Owned(noise), tp.Exp(logSig)))
			return SchedProbe{Loss: tp.SumAll(tp.Mul(z, z)), Outputs: []*Node{z}, Leaves: []*Node{mu, logSig}}
		}},
		{"gru-recurrence", func(tp *Tape) SchedProbe {
			return gruProbe(tp, 4, 0)
		}},

		// The rematerialization-segment cases, kept under their old names
		// with the segments gone: Keep-pinned values between ops, the way
		// segment boundaries pinned them.
		{"checkpoint/chain", func(tp *Tape) SchedProbe {
			a := tp.Var(testMat(4, 4, 90))
			mid := tp.Tanh(tp.MatMul(a, a))
			tp.Keep(mid)
			out := tp.Sigmoid(tp.MatMul(mid, a))
			tp.Keep(out)
			return SchedProbe{Loss: tp.SumAll(out), Outputs: []*Node{mid, out}, Leaves: []*Node{a}}
		}},
		{"checkpoint/gru-segments", func(tp *Tape) SchedProbe {
			return gruProbe(tp, 6, 2)
		}},
		{"checkpoint/fuse-across-boundary", func(tp *Tape) SchedProbe {
			// Found by FuzzTapeSchedule when segments existed: a pinned
			// producer whose unpinned operands die first in record order,
			// consumed by an activation recorded after it.
			a := tp.Var(testMat(3, 3, 94))
			mid := tp.Add(tp.Add(a, a), a)
			m := tp.MatMul(mid, a)
			tp.Keep(m)
			o := tp.Tanh(m)
			return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o, m}, Leaves: []*Node{a}}
		}},
		{"checkpoint/owned-inside-segment", func(tp *Tape) SchedProbe {
			mu, logSig := tp.Var(testMat(3, 2, 91)), tp.Var(testMat(3, 2, 92))
			noise := Get(3, 2)
			copy(noise.Data, testMat(3, 2, 93).Data)
			z := tp.Mul(tp.Add(mu, tp.Mul(tp.Owned(noise), tp.Exp(logSig))), mu)
			tp.Keep(z)
			return SchedProbe{Loss: tp.SumAll(z), Outputs: []*Node{z}, Leaves: []*Node{mu, logSig}}
		}},
	}
	for _, a := range fusableActs {
		cases = append(cases, schedCase{"Affine/" + a.name, affineCase(a.act)}, schedCase{"Affine2/" + a.name, affine2Case(a.act)})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := AssertSchedEquiv(tc.build); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func unaryCase(op func(tp *Tape, a *Node) *Node) func(tp *Tape) SchedProbe {
	return func(tp *Tape) SchedProbe {
		a := tp.Var(testMat(3, 4, 99))
		o := op(tp, a)
		loss := o
		if o.Value.Rows != 1 || o.Value.Cols != 1 {
			loss = tp.SumAll(o)
		}
		return SchedProbe{Loss: loss, Outputs: []*Node{o}, Leaves: []*Node{a}}
	}
}

func affineCase(act Act) func(tp *Tape) SchedProbe {
	return func(tp *Tape) SchedProbe {
		x, w, b := tp.Var(testMat(3, 4, 16)), tp.Var(testMat(4, 2, 17)), tp.Var(testMat(1, 2, 18))
		o := tp.Affine(x, w, b, act)
		return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{x, w, b}}
	}
}

func affine2Case(act Act) func(tp *Tape) SchedProbe {
	return func(tp *Tape) SchedProbe {
		x, wx := tp.Var(testMat(3, 4, 16)), tp.Var(testMat(4, 2, 17))
		h, wh := tp.Var(testMat(3, 5, 18)), tp.Var(testMat(5, 2, 19))
		b := tp.Var(testMat(1, 2, 20))
		o := tp.Affine2(x, wx, h, wh, b, act)
		return SchedProbe{Loss: tp.SumAll(o), Outputs: []*Node{o}, Leaves: []*Node{x, wx, h, wh, b}}
	}
}

// gruProbe records a GRU-style recurrence over steps timesteps. Every
// step's loss term is Keep-pinned, and so is the hidden state every
// keepEvery steps (keepEvery > 0) and after the last step, the way the
// trainer pins what it reads after Backward.
func gruProbe(tp *Tape, steps, keepEvery int) SchedProbe {
	const n, din, dh = 3, 4, 5
	wx := tp.Var(testMat(din, dh, 100))
	wh := tp.Var(testMat(dh, dh, 101))
	wxh := tp.Var(testMat(din, dh, 102))
	whh := tp.Var(testMat(dh, dh, 103))
	bz := tp.Var(testMat(1, dh, 104))
	bh := tp.Var(testMat(1, dh, 105))
	h := tp.Const(New(n, dh))
	var terms []*Node
	for s := 0; s < steps; s++ {
		x := tp.Owned(Get(n, din))
		copy(x.Value.Data, testMat(n, din, int64(110+s)).Data)
		z := tp.Affine2(x, wx, h, wh, bz, ActSigmoid)
		hTil := tp.Affine2(x, wxh, tp.Mul(z, h), whh, bh, ActTanh)
		h = tp.Lerp(h, hTil, z)
		term := tp.MeanAll(tp.Mul(h, h))
		terms = append(terms, term)
		tp.Keep(term)
		if keepEvery > 0 && (s+1)%keepEvery == 0 {
			tp.Keep(h)
		}
	}
	tp.Keep(h)
	loss := terms[0]
	for _, term := range terms[1:] {
		loss = tp.Add(loss, term)
	}
	return SchedProbe{Loss: loss, Outputs: append([]*Node{h}, terms...),
		Leaves: []*Node{wx, wh, wxh, whh, bz, bh}}
}
