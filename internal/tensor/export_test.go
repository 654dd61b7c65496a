package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Test-only helpers: ops and constructors the tests exercise but no
// caller outside them needs.

// AddScalar returns a + s elementwise.
func (t *Tape) AddScalar(a *Node, s float64) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = v + s
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			a.grad().AddInPlace(n.Grad)
		}
	}
	return n
}

// ReLU applies max(0,x) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = math.Max(0, v)
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				if a.Value.Data[i] > 0 {
					g.Data[i] += n.Grad.Data[i]
				}
			}
		}
	}
	return n
}

// MulColVec multiplies every row i of a (E×d) by the scalar b_i (E×1).
// With SegmentSoftmax it builds gatChain.
func (t *Tape) MulColVec(a, b *Node) *Node {
	if b.Value.Cols != 1 || b.Value.Rows != a.Value.Rows {
		panic(fmt.Sprintf("tensor: MulColVec needs %dx1 column, got %s", a.Value.Rows, b.Value.shape()))
	}
	out := Get(a.Value.Rows, a.Value.Cols)
	for i := 0; i < out.Rows; i++ {
		s := b.Value.Data[i]
		arow := a.Value.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = arow[j] * s
		}
	}
	n := t.op(out, anyGrad(a, b))
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := 0; i < n.Grad.Rows; i++ {
				s := b.Value.Data[i]
				grow := g.Row(i)
				nrow := n.Grad.Row(i)
				for j := range grow {
					grow[j] += nrow[j] * s
				}
			}
		}
		if b.needGrad {
			g := b.grad()
			for i := 0; i < n.Grad.Rows; i++ {
				arow := a.Value.Row(i)
				nrow := n.Grad.Row(i)
				s := 0.0
				for j := range arow {
					s += arow[j] * nrow[j]
				}
				g.Data[i] += s
			}
		}
	}
	return n
}

// SegmentSoftmax normalises the E×1 column a with a softmax within each
// segment: entries sharing seg[k] form one softmax group; seg values must
// lie in [0, nSeg). The backward's per-segment dot products are arena
// scratch returned before it does. With MulColVec it builds gatChain.
func (t *Tape) SegmentSoftmax(a *Node, seg []int, nSeg int) *Node {
	if a.Value.Cols != 1 || len(seg) != a.Value.Rows {
		panic("tensor: SegmentSoftmax needs E×1 input with matching segment slice")
	}
	checkIndices("SegmentSoftmax", seg, nSeg)
	out := Get(a.Value.Rows, 1)
	copy(out.Data, a.Value.Data)
	segmentSoftmax(out.Data, seg, nSeg)
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if !a.needGrad {
			return
		}
		dotM := Get(1, nSeg)
		dot := dotM.Data
		for k, i := range seg {
			dot[i] += n.Value.Data[k] * n.Grad.Data[k]
		}
		g := a.grad()
		for k, i := range seg {
			g.Data[k] += n.Value.Data[k] * (n.Grad.Data[k] - dot[i])
		}
		Put(dotM)
	}
	return n
}

// gatChain is the unfused form of Tape.GAT, the chain the Eq. 12 layer
// recorded before the op existed: both ends' rows gathered, a linear
// layer per end, Add, LeakyReLU, SegmentSoftmax over the destinations,
// MulColVec and ScatterAddRows.
func gatChain(tp *Tape, wh, aSrcW, aSrcB, aDstW, aDstB *Node, src, dst []int, n int) *Node {
	hSrc, hDst := tp.GatherRows(wh, src), tp.GatherRows(wh, dst)
	score := tp.LeakyReLU(tp.Add(tp.Affine(hSrc, aSrcW, aSrcB, ActIdent), tp.Affine(hDst, aDstW, aDstB, ActIdent)))
	return tp.ScatterAddRows(tp.MulColVec(hSrc, tp.SegmentSoftmax(score, dst, n)), dst, n)
}

// Transpose returns aᵀ. With PairDiffT it builds pairMLPChain, the
// unfused form of Tape.PairMLP that its tests hold it against.
func (t *Tape) Transpose(a *Node) *Node {
	rows, cols := a.Value.Rows, a.Value.Cols
	out := Get(cols, rows)
	for i := 0; i < rows; i++ {
		for j, v := range a.Value.Row(i) {
			out.Data[j*rows+i] = v
		}
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := 0; i < rows; i++ {
				for j := range g.Row(i) {
					g.Data[i*cols+j] += n.Grad.Data[j*rows+i]
				}
			}
		}
	}
	return n
}

// PairDiffT builds the hidden block of a pair MLP whose linear first layer
// was hoisted out of the pairs, W₁(sᵢ−sⱼ)+b = (SW₁)ᵢ − (SW₁)ⱼ + b. pT holds
// (S·W₁)ᵀ, one row per hidden unit and one column per node; b (1×d) is the
// first-layer bias of the head whose units sit in rows [lo, lo+d) of pT.
// The output is transposed, d×E with the pairs on the column axis:
//
//	out[r][k] = act((pT[lo+r][src[k]] − pT[lo+r][dst[k]]) + b[r])
//
// so the layer that follows runs as W₂ᵀ·out, E output columns wide. The
// loops are plain Go: every backend computes the same bits.
func (t *Tape) PairDiffT(pT, b *Node, lo int, src, dst []int, act Act) *Node {
	d, e := b.Value.Cols, len(src)
	if b.Value.Rows != 1 || lo < 0 || lo+d > pT.Value.Rows || len(dst) != e {
		panic(fmt.Sprintf("tensor: PairDiffT rows [%d,%d) of %s with bias %s, %d src vs %d dst",
			lo, lo+d, pT.Value.shape(), b.Value.shape(), e, len(dst)))
	}
	checkIndices("PairDiffT", src, pT.Value.Cols)
	checkIndices("PairDiffT", dst, pT.Value.Cols)
	out := Get(d, e)
	for r := 0; r < d; r++ {
		p, bias, orow := pT.Value.Row(lo+r), b.Value.Data[r], out.Row(r)
		for k, i := range src {
			orow[k] = (p[i] - p[dst[k]]) + bias
		}
	}
	applyActSlice(out.Data, act)
	n := t.op(out, anyGrad(pT, b))
	n.backward = func() {
		dPre, scratch := preGrad(n.Value, n.Grad, act)
		if pT.needGrad {
			g := pT.grad()
			for r := 0; r < d; r++ {
				grow := g.Row(lo + r)
				for k, v := range dPre.Row(r) {
					grow[src[k]] += v
					grow[dst[k]] -= v
				}
			}
		}
		if b.needGrad {
			g := b.grad()
			for r := 0; r < d; r++ {
				sum := 0.0
				for _, v := range dPre.Row(r) {
					sum += v
				}
				g.Data[r] += sum
			}
		}
		if scratch {
			Put(dPre)
		}
	}
	return n
}

// fusableActs is every activation Affine, Affine2 and PairDiffT fuse, by
// the name its test cases carry. Every test that sweeps the activations
// ranges over it, so a change to the Act enum reaches them all at once.
var fusableActs = []struct {
	name string
	act  Act
}{{"ident", ActIdent}, {"leaky", ActLeakyReLU}, {"tanh", ActTanh}, {"sigmoid", ActSigmoid}}

// LiveBytes returns the bytes of tape-owned buffers (op outputs and
// gradients) currently checked out of the arena. Zero after Reset.
func (t *Tape) LiveBytes() int64 { return t.live }

// Dense materialises the CSR matrix as a dense Matrix.
func (s *CSR) Dense() *Matrix {
	out := New(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			out.Data[i*s.Cols+s.ColIdx[p]]++
		}
	}
	return out
}

// SpMMCSC is Tape.SpMM with the backward it had before each CSR carried
// its transpose: a gather through a CSC index of s, built here on every
// call. Every output row j adds d's rows for the entries of column j in
// ascending source row, AxpyRow with weight 1. The tests hold the product
// by s.T against it bit for bit.
func (t *Tape) SpMMCSC(s *CSR, a *Node) *Node {
	n := t.op(s.MulDense(a.Value), a.needGrad)
	n.backward = func() {
		if a.needGrad {
			s.mulDenseTCSC(a.grad(), n.Grad)
		}
	}
	return n
}

// mulDenseTCSC accumulates sᵀ·d into out through a CSC index of s.
func (s *CSR) mulDenseTCSC(out, d *Matrix) {
	colPtr := make([]int, s.Cols+1)
	for _, c := range s.ColIdx {
		colPtr[c+1]++
	}
	for j := 0; j < s.Cols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int, s.NNZ())
	next := slices.Clone(colPtr[:s.Cols])
	for i := 0; i < s.Rows; i++ {
		for _, c := range s.ColIdx[s.RowPtr[i]:s.RowPtr[i+1]] {
			rowIdx[next[c]] = i
			next[c]++
		}
	}
	n := d.Cols
	for j := 0; j < s.Cols; j++ {
		orow := out.Data[j*n : (j+1)*n]
		for _, i := range rowIdx[colPtr[j]:colPtr[j+1]] {
			axpyRow(orow, d.Data[i*n:(i+1)*n], 1)
		}
	}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Full returns a rows×cols matrix with every entry set to v.
func Full(rows, cols int, v float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// SymEig is symEig on a copy of a, into fresh w and v.
func SymEig(a []float64, n int) (w []float64, v []float64) {
	m := make([]float64, n*n)
	copy(m, a)
	w, v = make([]float64, n), make([]float64, n*n)
	symEig(m, w, v, n)
	return w, v
}
