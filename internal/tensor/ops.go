package tensor

import (
	"fmt"
	"math"
)

// Every operation below follows one discipline: it computes its output
// into a buffer from Get, records it with Tape.op, and attaches a backward
// closure that reads n.Value and n.Grad. Backward runs that closure before
// it releases either buffer, so both are live whenever the closure reads
// them.

// ---- Elementwise binary operations ----

// Add returns a + b elementwise.
func (t *Tape) Add(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %s vs %s", a.Value.shape(), b.Value.shape()))
	}
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = v + b.Value.Data[i]
	}
	n := t.op(out, anyGrad(a, b))
	n.backward = func() {
		if a.needGrad {
			a.grad().AddInPlace(n.Grad)
		}
		if b.needGrad {
			b.grad().AddInPlace(n.Grad)
		}
	}
	return n
}

// Sub returns a - b elementwise.
func (t *Tape) Sub(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %s vs %s", a.Value.shape(), b.Value.shape()))
	}
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = v - b.Value.Data[i]
	}
	n := t.op(out, anyGrad(a, b))
	n.backward = func() {
		if a.needGrad {
			a.grad().AddInPlace(n.Grad)
		}
		if b.needGrad {
			b.grad().Axpy(-1, n.Grad)
		}
	}
	return n
}

// Mul returns a ⊙ b (elementwise/Hadamard product).
func (t *Tape) Mul(a, b *Node) *Node {
	if !a.Value.SameShape(b.Value) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %s vs %s", a.Value.shape(), b.Value.shape()))
	}
	out := Get(a.Value.Rows, a.Value.Cols)
	for i := range out.Data {
		out.Data[i] = a.Value.Data[i] * b.Value.Data[i]
	}
	n := t.op(out, anyGrad(a, b))
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] * b.Value.Data[i]
			}
		}
		if b.needGrad {
			g := b.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] * a.Value.Data[i]
			}
		}
	}
	return n
}

// Scale returns s*a.
func (t *Tape) Scale(a *Node, s float64) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = v * s
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			a.grad().Axpy(s, n.Grad)
		}
	}
	return n
}

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

// AddRowVec broadcasts a 1×cols row vector b across every row of a (bias add).
func (t *Tape) AddRowVec(a, b *Node) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec needs 1x%d bias, got %s", a.Value.Cols, b.Value.shape()))
	}
	out := Get(a.Value.Rows, a.Value.Cols)
	copy(out.Data, a.Value.Data)
	out.AddRowVecInPlace(b.Value)
	n := t.op(out, anyGrad(a, b))
	n.backward = func() {
		if a.needGrad {
			a.grad().AddInPlace(n.Grad)
		}
		if b.needGrad {
			g := b.grad()
			for i := 0; i < n.Grad.Rows; i++ {
				row := n.Grad.Row(i)
				for j := range g.Data {
					g.Data[j] += row[j]
				}
			}
		}
	}
	return n
}

// MulColVec multiplies every row i of a (E×d) by the scalar b_i (E×1).
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

// ---- Matrix products ----

// MatMul returns a·b with full gradient support for both operands.
func (t *Tape) MatMul(a, b *Node) *Node {
	n := t.op(MatMul(a.Value, b.Value), anyGrad(a, b))
	n.backward = func() {
		if a.needGrad { // dA = dOut · Bᵀ
			matMulInto(a.grad(), n.Grad, b.Value, false, true)
		}
		if b.needGrad { // dB = Aᵀ · dOut
			matMulInto(b.grad(), a.Value, n.Grad, true, false)
		}
	}
	return n
}

// SpMM returns s·a where s is a constant sparse matrix (graph adjacency).
// The gradient flows only into a: dA = sᵀ · dOut, accumulated directly
// into the gradient buffer without an intermediate matrix.
func (t *Tape) SpMM(s *CSR, a *Node) *Node {
	n := t.op(s.MulDense(a.Value), a.needGrad)
	n.backward = func() {
		if a.needGrad {
			s.MulDenseTInto(a.grad(), n.Grad)
		}
	}
	return n
}

// ---- Fused affine ops ----

// Act selects an activation fused into Affine/Affine2. Every supported
// activation's derivative is recoverable from its output, so the fused
// backward needs no pre-activation buffer.
type Act int

// Fusable activations.
const (
	ActIdent Act = iota
	ActReLU
	ActLeakyReLU // slope 0.2
	ActTanh
	ActSigmoid
)

func applyActSlice(data []float64, act Act) {
	switch act {
	case ActReLU:
		backendImpl.VReLU(data)
	case ActLeakyReLU:
		backendImpl.VLeakyReLU(data, 0.2)
	case ActTanh:
		VTanh(data)
	case ActSigmoid:
		VSigmoid(data)
	}
}

// actGradFromOutput returns d act(x)/dx expressed through y = act(x).
func actGradFromOutput(y float64, act Act) float64 {
	switch act {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActLeakyReLU:
		if y > 0 {
			return 1
		}
		return 0.2
	case ActTanh:
		return 1 - y*y
	case ActSigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// preGrad turns the output gradient of a fused activation into the
// pre-activation gradient. For ActIdent it is the output gradient itself;
// otherwise a pooled scratch buffer is returned that the caller must Put.
func preGrad(out, grad *Matrix, act Act) (dPre *Matrix, scratch bool) {
	if act == ActIdent {
		return grad, false
	}
	d := Get(grad.Rows, grad.Cols)
	backendImpl.VActGrad(d.Data, grad.Data, out.Data, act)
	return d, true
}

// affineGrads propagates the pre-activation gradient dPre of
// act(x·w + h·u + b) into its inputs; h and u are nil for the one-product
// Affine.
func affineGrads(x, w, h, u, b *Node, dPre *Matrix) {
	if x.needGrad {
		matMulInto(x.grad(), dPre, w.Value, false, true)
	}
	if w.needGrad {
		matMulInto(w.grad(), x.Value, dPre, true, false)
	}
	if h != nil {
		if h.needGrad {
			matMulInto(h.grad(), dPre, u.Value, false, true)
		}
		if u.needGrad {
			matMulInto(u.grad(), h.Value, dPre, true, false)
		}
	}
	if b.needGrad {
		g := b.grad()
		for i := 0; i < dPre.Rows; i++ {
			row := dPre.Row(i)
			for j := range g.Data {
				g.Data[j] += row[j]
			}
		}
	}
}

// Affine computes act(x·W + b) as a single tape node: one output buffer
// and one backward closure replace the MatMul → AddRowVec → activation
// chain (three nodes, three full-size intermediates) of the unfused form.
func (t *Tape) Affine(x, w, b *Node, act Act) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != w.Value.Cols {
		panic(fmt.Sprintf("tensor: Affine needs 1x%d bias, got %s", w.Value.Cols, b.Value.shape()))
	}
	out := Get(x.Value.Rows, w.Value.Cols)
	MatMulInto(out, x.Value, w.Value)
	out.AddRowVecInPlace(b.Value)
	applyActSlice(out.Data, act)
	n := t.op(out, anyGrad(x, w, b))
	n.backward = func() {
		dPre, scratch := preGrad(n.Value, n.Grad, act)
		affineGrads(x, w, nil, nil, b, dPre)
		if scratch {
			Put(dPre)
		}
	}
	return n
}

// Affine2 computes act(x·Wx + h·Wh + b) as a single node — the shape of
// every GRU gate. Fusing the two products and the bias removes four
// intermediate nodes per gate from the tape.
func (t *Tape) Affine2(x, wx, h, wh, b *Node, act Act) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != wx.Value.Cols || wx.Value.Cols != wh.Value.Cols {
		panic(fmt.Sprintf("tensor: Affine2 bias/width mismatch %s vs %s vs %s",
			wx.Value.shape(), wh.Value.shape(), b.Value.shape()))
	}
	out := Get(x.Value.Rows, wx.Value.Cols)
	MatMulInto(out, x.Value, wx.Value)
	MatMulInto(out, h.Value, wh.Value)
	out.AddRowVecInPlace(b.Value)
	applyActSlice(out.Data, act)
	n := t.op(out, anyGrad(x, wx, h, wh, b))
	n.backward = func() {
		dPre, scratch := preGrad(n.Value, n.Grad, act)
		affineGrads(x, wx, h, wh, b, dPre)
		if scratch {
			Put(dPre)
		}
	}
	return n
}

// Lerp returns (1-z)⊙a + z⊙b — the GRU state blend h + z⊙(h̃-h) — as one
// node instead of the Sub/Mul/Add chain.
func (t *Tape) Lerp(a, b, z *Node) *Node {
	if !a.Value.SameShape(b.Value) || !a.Value.SameShape(z.Value) {
		panic(fmt.Sprintf("tensor: Lerp shape mismatch %s vs %s vs %s",
			a.Value.shape(), b.Value.shape(), z.Value.shape()))
	}
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, av := range a.Value.Data {
		out.Data[i] = av + z.Value.Data[i]*(b.Value.Data[i]-av)
	}
	n := t.op(out, anyGrad(a, b, z))
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] * (1 - z.Value.Data[i])
			}
		}
		if b.needGrad {
			g := b.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] * z.Value.Data[i]
			}
		}
		if z.needGrad {
			g := z.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] * (b.Value.Data[i] - a.Value.Data[i])
			}
		}
	}
	return n
}

// ---- Activations ----

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	copy(out.Data, a.Value.Data)
	VSigmoid(out.Data)
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				y := n.Value.Data[i]
				g.Data[i] += n.Grad.Data[i] * y * (1 - y)
			}
		}
	}
	return n
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	copy(out.Data, a.Value.Data)
	VTanh(out.Data)
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				y := n.Value.Data[i]
				g.Data[i] += n.Grad.Data[i] * (1 - y*y)
			}
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

// LeakyReLU applies x if x>0 else slope*x, elementwise.
func (t *Tape) LeakyReLU(a *Node, slope float64) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = slope * v
		}
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				if a.Value.Data[i] > 0 {
					g.Data[i] += n.Grad.Data[i]
				} else {
					g.Data[i] += n.Grad.Data[i] * slope
				}
			}
		}
	}
	return n
}

// Exp applies e^x elementwise. Inputs are clamped to 40 before
// exponentiation to keep training numerically stable.
func (t *Tape) Exp(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = math.Min(v, 40)
	}
	VExp(out.Data)
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] * n.Value.Data[i]
			}
		}
	}
	return n
}

// Log applies ln(max(x, 1e-12)) elementwise.
func (t *Tape) Log(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = math.Log(math.Max(v, 1e-12))
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] / math.Max(a.Value.Data[i], 1e-12)
			}
		}
	}
	return n
}

// Sin applies sin elementwise (used by Time2Vec temporal embeddings).
func (t *Tape) Sin(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		out.Data[i] = math.Sin(v)
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := range g.Data {
				g.Data[i] += n.Grad.Data[i] * math.Cos(a.Value.Data[i])
			}
		}
	}
	return n
}

// SoftmaxRows applies a numerically stable softmax to each row independently.
func (t *Tape) SoftmaxRows(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		softmaxInto(out.Row(i), a.Value.Row(i))
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if !a.needGrad {
			return
		}
		g := a.grad()
		for i := 0; i < n.Value.Rows; i++ {
			y := n.Value.Row(i)
			dy := n.Grad.Row(i)
			dot := 0.0
			for j := range y {
				dot += y[j] * dy[j]
			}
			grow := g.Row(i)
			for j := range y {
				grow[j] += y[j] * (dy[j] - dot)
			}
		}
	}
	return n
}

func softmaxInto(dst, src []float64) {
	mx := math.Inf(-1)
	for _, v := range src {
		if v > mx {
			mx = v
		}
	}
	sum := 0.0
	for j, v := range src {
		e := math.Exp(v - mx)
		dst[j] = e
		sum += e
	}
	if sum == 0 {
		u := 1 / float64(len(dst))
		for j := range dst {
			dst[j] = u
		}
		return
	}
	for j := range dst {
		dst[j] /= sum
	}
}

// ---- Shape operations ----

// ConcatCols concatenates matrices with equal row counts along columns.
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("tensor: ConcatCols needs at least one input")
	}
	rows := parts[0].Value.Rows
	total := 0
	for _, p := range parts {
		if p.Value.Rows != rows {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", rows, p.Value.Rows))
		}
		total += p.Value.Cols
	}
	out := Get(rows, total)
	off := 0
	for _, p := range parts {
		c := p.Value.Cols
		for i := 0; i < rows; i++ {
			copy(out.Data[i*total+off:i*total+off+c], p.Value.Row(i))
		}
		off += c
	}
	n := t.op(out, anyGrad(parts...))
	n.backward = func() {
		off := 0
		for _, p := range parts {
			c := p.Value.Cols
			if p.needGrad {
				g := p.grad()
				for i := 0; i < rows; i++ {
					grow := g.Row(i)
					nrow := n.Grad.Data[i*total+off : i*total+off+c]
					for j := range grow {
						grow[j] += nrow[j]
					}
				}
			}
			off += c
		}
	}
	return n
}

// SliceCols returns columns [lo, hi) of a as a new node.
func (t *Tape) SliceCols(a *Node, lo, hi int) *Node {
	if lo < 0 || hi > a.Value.Cols || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) out of range for %s", lo, hi, a.Value.shape()))
	}
	rows, w := a.Value.Rows, hi-lo
	out := Get(rows, w)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), a.Value.Row(i)[lo:hi])
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := 0; i < rows; i++ {
				grow := g.Row(i)[lo:hi]
				nrow := n.Grad.Row(i)
				for j := range nrow {
					grow[j] += nrow[j]
				}
			}
		}
	}
	return n
}

// GatherRows selects rows of a by index: out[k] = a[idx[k]].
func (t *Tape) GatherRows(a *Node, idx []int) *Node {
	cols := a.Value.Cols
	out := Get(len(idx), cols)
	for k, i := range idx {
		copy(out.Row(k), a.Value.Row(i))
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for k, i := range idx {
				grow := g.Row(i)
				nrow := n.Grad.Row(k)
				for j := range grow {
					grow[j] += nrow[j]
				}
			}
		}
	}
	return n
}

// ScatterAddRows accumulates rows of a into a matrix with outRows rows:
// out[idx[k]] += a[k]. idx values must lie in [0, outRows).
func (t *Tape) ScatterAddRows(a *Node, idx []int, outRows int) *Node {
	if len(idx) != a.Value.Rows {
		panic(fmt.Sprintf("tensor: ScatterAddRows idx len %d != rows %d", len(idx), a.Value.Rows))
	}
	cols := a.Value.Cols
	out := Get(outRows, cols)
	for k, i := range idx {
		orow := out.Row(i)
		arow := a.Value.Row(k)
		for j := range orow {
			orow[j] += arow[j]
		}
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for k, i := range idx {
				grow := g.Row(k)
				nrow := n.Grad.Row(i)
				for j := range grow {
					grow[j] += nrow[j]
				}
			}
		}
	}
	return n
}

// Transpose returns aᵀ.
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
// so the layer that follows runs as W₂ᵀ·out, E output columns wide. One
// node replaces two GatherRows, a Sub and the first Affine of the E-row
// form. The loops are plain Go: every backend computes the same bits.
func (t *Tape) PairDiffT(pT, b *Node, lo int, src, dst []int, act Act) *Node {
	d, e := b.Value.Cols, len(src)
	if b.Value.Rows != 1 || lo < 0 || lo+d > pT.Value.Rows || len(dst) != e {
		panic(fmt.Sprintf("tensor: PairDiffT rows [%d,%d) of %s with bias %s, %d src vs %d dst",
			lo, lo+d, pT.Value.shape(), b.Value.shape(), e, len(dst)))
	}
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

// SegmentSoftmax normalises the E×1 column a with a softmax within each
// segment: entries sharing seg[k] form one softmax group. Used for graph
// attention (softmax over each node's incoming edges). nSeg is the number
// of distinct segments; seg values must lie in [0, nSeg).
func (t *Tape) SegmentSoftmax(a *Node, seg []int, nSeg int) *Node {
	if a.Value.Cols != 1 || len(seg) != a.Value.Rows {
		panic("tensor: SegmentSoftmax needs E×1 input with matching segment slice")
	}
	e := a.Value.Rows
	mx := make([]float64, nSeg)
	for i := range mx {
		mx[i] = math.Inf(-1)
	}
	for k := 0; k < e; k++ {
		if v := a.Value.Data[k]; v > mx[seg[k]] {
			mx[seg[k]] = v
		}
	}
	sum := make([]float64, nSeg)
	out := Get(e, 1)
	for k := 0; k < e; k++ {
		v := math.Exp(a.Value.Data[k] - mx[seg[k]])
		out.Data[k] = v
		sum[seg[k]] += v
	}
	for k := 0; k < e; k++ {
		if s := sum[seg[k]]; s > 0 {
			out.Data[k] /= s
		}
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if !a.needGrad {
			return
		}
		dot := make([]float64, nSeg)
		for k := 0; k < e; k++ {
			dot[seg[k]] += n.Value.Data[k] * n.Grad.Data[k]
		}
		g := a.grad()
		for k := 0; k < e; k++ {
			g.Data[k] += n.Value.Data[k] * (n.Grad.Data[k] - dot[seg[k]])
		}
	}
	return n
}

// ---- Reductions ----

// SumAll reduces a to a 1×1 scalar by summation.
func (t *Tape) SumAll(a *Node) *Node {
	out := Get(1, 1)
	out.Data[0] = a.Value.Sum()
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			d := n.Grad.Data[0]
			for i := range g.Data {
				g.Data[i] += d
			}
		}
	}
	return n
}

// MeanAll reduces a to a 1×1 scalar by averaging.
func (t *Tape) MeanAll(a *Node) *Node {
	count := float64(len(a.Value.Data))
	if count == 0 {
		return t.Owned(Get(1, 1))
	}
	return t.Scale(t.SumAll(a), 1/count)
}

// SumRows reduces each row to a single value, producing an N×1 column.
func (t *Tape) SumRows(a *Node) *Node {
	rows := a.Value.Rows
	out := Get(rows, 1)
	for i := 0; i < rows; i++ {
		s := 0.0
		for _, v := range a.Value.Row(i) {
			s += v
		}
		out.Data[i] = s
	}
	n := t.op(out, a.needGrad)
	n.backward = func() {
		if a.needGrad {
			g := a.grad()
			for i := 0; i < rows; i++ {
				d := n.Grad.Data[i]
				grow := g.Row(i)
				for j := range grow {
					grow[j] += d
				}
			}
		}
	}
	return n
}

// ---- Losses ----

// BCEWithLogits returns the mean binary cross-entropy between
// sigmoid(logits) and targets, computed in a numerically stable form.
// targets is treated as a constant.
func (t *Tape) BCEWithLogits(logits *Node, targets *Matrix) *Node {
	if !logits.Value.SameShape(targets) {
		panic(fmt.Sprintf("tensor: BCEWithLogits shape mismatch %s vs %s", logits.Value.shape(), targets.shape()))
	}
	count := float64(len(targets.Data))
	loss := 0.0
	for i, x := range logits.Value.Data {
		y := targets.Data[i]
		// max(x,0) - x*y + log(1+exp(-|x|))
		loss += math.Max(x, 0) - x*y + math.Log1p(math.Exp(-math.Abs(x)))
	}
	out := Get(1, 1)
	out.Data[0] = loss / count
	n := t.op(out, logits.needGrad)
	n.backward = func() {
		if logits.needGrad {
			g := logits.grad()
			d := n.Grad.Data[0] / count
			for i, x := range logits.Value.Data {
				g.Data[i] += d * (sigmoid(x) - targets.Data[i])
			}
		}
	}
	return n
}

// BCEProb returns the mean binary cross-entropy between probabilities p in
// (0,1) and constant targets. Probabilities are clamped to [eps, 1-eps].
func (t *Tape) BCEProb(p *Node, targets *Matrix) *Node {
	if !p.Value.SameShape(targets) {
		panic(fmt.Sprintf("tensor: BCEProb shape mismatch %s vs %s", p.Value.shape(), targets.shape()))
	}
	const eps = 1e-7
	count := float64(len(targets.Data))
	loss := 0.0
	for i, v := range p.Value.Data {
		v = clamp(v, eps, 1-eps)
		y := targets.Data[i]
		loss += -(y*math.Log(v) + (1-y)*math.Log(1-v))
	}
	out := Get(1, 1)
	out.Data[0] = loss / count
	n := t.op(out, p.needGrad)
	n.backward = func() {
		if p.needGrad {
			g := p.grad()
			d := n.Grad.Data[0] / count
			for i, v := range p.Value.Data {
				v = clamp(v, eps, 1-eps)
				y := targets.Data[i]
				g.Data[i] += d * ((v - y) / (v * (1 - v)))
			}
		}
	}
	return n
}

// SCELoss is the scaled cosine error of Eq. (18): mean over rows of
// (1 - cos(x_i, x̂_i))^alpha, with x constant and gradients flowing into x̂.
func (t *Tape) SCELoss(xhat *Node, x *Matrix, alpha float64) *Node {
	if !xhat.Value.SameShape(x) {
		panic(fmt.Sprintf("tensor: SCELoss shape mismatch %s vs %s", xhat.Value.shape(), x.shape()))
	}
	const eps = 1e-9
	rows := x.Rows
	// Per-row cosines, norms and dot products, read again by the backward.
	cos := make([]float64, rows)
	nx := make([]float64, rows)
	nxh := make([]float64, rows)
	dots := make([]float64, rows)
	loss := 0.0
	for i := 0; i < rows; i++ {
		xr, hr := x.Row(i), xhat.Value.Row(i)
		var dot, a2, b2 float64
		for j := range xr {
			dot += xr[j] * hr[j]
			a2 += xr[j] * xr[j]
			b2 += hr[j] * hr[j]
		}
		nx[i] = math.Sqrt(a2) + eps
		nxh[i] = math.Sqrt(b2) + eps
		dots[i] = dot
		cos[i] = dot / (nx[i] * nxh[i])
		loss += math.Pow(math.Max(1-cos[i], 0), alpha)
	}
	out := Get(1, 1)
	if rows > 0 {
		out.Data[0] = loss / float64(rows)
	}
	n := t.op(out, xhat.needGrad)
	n.backward = func() {
		if !xhat.needGrad || rows == 0 {
			return
		}
		g := xhat.grad()
		d := n.Grad.Data[0] / float64(rows)
		for i := 0; i < rows; i++ {
			base := 1 - cos[i]
			if base < 0 {
				base = 0
			}
			// d/dcos of (1-cos)^alpha = -alpha*(1-cos)^(alpha-1)
			coef := -alpha * math.Pow(base+eps, alpha-1) * d
			xr, hr := x.Row(i), xhat.Value.Row(i)
			grow := g.Row(i)
			inv := 1 / (nx[i] * nxh[i])
			for j := range xr {
				dcos := xr[j]*inv - dots[i]*hr[j]/(nx[i]*nxh[i]*nxh[i]*nxh[i])
				grow[j] += coef * dcos
			}
		}
	}
	return n
}

// MSELoss returns the mean squared error between xhat and constant x.
func (t *Tape) MSELoss(xhat *Node, x *Matrix) *Node {
	if !xhat.Value.SameShape(x) {
		panic(fmt.Sprintf("tensor: MSELoss shape mismatch %s vs %s", xhat.Value.shape(), x.shape()))
	}
	count := float64(len(x.Data))
	loss := 0.0
	for i, v := range xhat.Value.Data {
		d := v - x.Data[i]
		loss += d * d
	}
	out := Get(1, 1)
	if count > 0 {
		out.Data[0] = loss / count
	}
	n := t.op(out, xhat.needGrad)
	n.backward = func() {
		if xhat.needGrad && count > 0 {
			g := xhat.grad()
			d := n.Grad.Data[0] * 2 / count
			for i, v := range xhat.Value.Data {
				g.Data[i] += d * (v - x.Data[i])
			}
		}
	}
	return n
}

// GaussianKL returns the summed KL divergence KL(q || p) between diagonal
// Gaussians q = N(muQ, exp(logSigQ)²) and p = N(muP, exp(logSigP)²):
//
//	Σ [ logσp − logσq + (σq² + (µq−µp)²)/(2σp²) − ½ ]
//
// All four inputs must share a shape.
func (t *Tape) GaussianKL(muQ, logSigQ, muP, logSigP *Node) *Node {
	shape := muQ.Value
	for _, o := range []*Node{logSigQ, muP, logSigP} {
		if !o.Value.SameShape(shape) {
			panic("tensor: GaussianKL shape mismatch")
		}
	}
	size := len(shape.Data)
	sq2 := make([]float64, size) // σq², read again by the backward
	sp2 := make([]float64, size) // σp²
	kl := 0.0
	for i := 0; i < size; i++ {
		sq := math.Exp(clamp(logSigQ.Value.Data[i], -20, 20))
		sp := math.Exp(clamp(logSigP.Value.Data[i], -20, 20))
		sq2[i], sp2[i] = sq*sq, sp*sp
		dm := muQ.Value.Data[i] - muP.Value.Data[i]
		kl += logSigP.Value.Data[i] - logSigQ.Value.Data[i] + (sq2[i]+dm*dm)/(2*sp2[i]) - 0.5
	}
	out := Get(1, 1)
	out.Data[0] = kl
	n := t.op(out, anyGrad(muQ, logSigQ, muP, logSigP))
	n.backward = func() {
		d := n.Grad.Data[0]
		for i := 0; i < size; i++ {
			dm := muQ.Value.Data[i] - muP.Value.Data[i]
			if muQ.needGrad {
				muQ.grad().Data[i] += d * dm / sp2[i]
			}
			if muP.needGrad {
				muP.grad().Data[i] += -d * dm / sp2[i]
			}
			if logSigQ.needGrad {
				logSigQ.grad().Data[i] += d * (sq2[i]/sp2[i] - 1)
			}
			if logSigP.needGrad {
				logSigP.grad().Data[i] += d * (1 - (sq2[i]+dm*dm)/sp2[i])
			}
		}
	}
	return n
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sigmoid is the scalar logistic function, exported for non-tape code paths
// (e.g. inference-time edge sampling).
func Sigmoid(x float64) float64 { return sigmoid(x) }

// SoftmaxSlice writes softmax(src) into dst (len(dst) == len(src)).
func SoftmaxSlice(dst, src []float64) { softmaxInto(dst, src) }
