package tensor

import (
	"fmt"
	"math"
)

// Every operation below follows one discipline: it checks its operands'
// shapes and indices, computes its output into a buffer from Get, records
// it with Tape.op, and attaches a backward closure that reads n.Value and
// n.Grad. The checks come before the Get, so an op that panics on a bad
// operand leaves the arena as it found it. Backward runs the closure
// before it releases either buffer, so both are live whenever the closure
// reads them.

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

// ---- Matrix products ----

// MatMul returns a·b with full gradient support for both operands.
func (t *Tape) MatMul(a, b *Node) *Node {
	n := t.op(MatMul(a.Value, b.Value), anyGrad(a, b))
	n.backward = func() {
		if a.needGrad { // dA = dOut · Bᵀ
			backendImpl.GemmNT(a.grad(), n.Grad, b.Value)
		}
		if b.needGrad { // dB = Aᵀ · dOut
			backendImpl.GemmTN(b.grad(), a.Value, n.Grad)
		}
	}
	return n
}

// SpMM returns s·a where s is a constant sparse matrix (graph adjacency).
// The gradient flows only into a: dA = sᵀ · dOut, the product by s.T
// accumulated directly into the gradient buffer. An a that needs a
// gradient needs s to carry its transpose.
func (t *Tape) SpMM(s *CSR, a *Node) *Node {
	if a.needGrad {
		needTranspose("SpMM", s)
	}
	n := t.op(s.MulDense(a.Value), a.needGrad)
	n.backward = func() {
		if a.needGrad {
			s.T.MulDenseInto(a.grad(), n.Grad)
		}
	}
	return n
}

// needTranspose panics when s has no transpose for op's backward to
// multiply by.
func needTranspose(op string, s *CSR) {
	if s.T == nil {
		panic(fmt.Sprintf("tensor: %s backward needs the transpose of its %dx%d CSR", op, s.Rows, s.Cols))
	}
}

// GIN returns Σ_k adj_k·h + (1+ε)·h, a GIN layer's aggregation (Xu et
// al.) with a learnable 1×1 ε, as one node. The forward sums the SpMM
// terms in order, then adds the self term as an Axpy. The backward adds
// into dh the SpMM terms, last CSR first, then the self term, and forms
// dε as a sum of per-row dot products: the order AddScalar, a GatherRows
// broadcast of 1+ε, MulColVec, the SpMMs and Add would accumulate in, so
// GIN trains to the same bits as that chain.
func (t *Tape) GIN(h, eps *Node, adj ...*CSR) *Node {
	if eps.Value.Rows != 1 || eps.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: GIN needs a 1x1 eps, got %s", eps.Value.shape()))
	}
	if len(adj) == 0 {
		panic("tensor: GIN needs at least one adjacency")
	}
	for _, a := range adj {
		if a.Rows != h.Value.Rows || a.Cols != h.Value.Rows {
			panic(fmt.Sprintf("tensor: GIN needs %dx%[1]d adjacencies, got %dx%d", h.Value.Rows, a.Rows, a.Cols))
		}
		if h.needGrad {
			needTranspose("GIN", a)
		}
	}
	out := adj[0].MulDense(h.Value)
	for _, a := range adj[1:] {
		term := a.MulDense(h.Value)
		out.AddInPlace(term)
		Put(term)
	}
	s := eps.Value.Data[0] + 1
	out.Axpy(s, h.Value)
	n := t.op(out, anyGrad(h, eps))
	n.backward = func() {
		if h.needGrad {
			g := h.grad()
			for k := len(adj) - 1; k >= 0; k-- {
				adj[k].T.MulDenseInto(g, n.Grad)
			}
			for i := 0; i < n.Grad.Rows; i++ {
				grow := g.Row(i)
				nrow := n.Grad.Row(i)
				for j := range grow {
					grow[j] += nrow[j] * s
				}
			}
		}
		if eps.needGrad {
			acc := 0.0
			for i := 0; i < n.Grad.Rows; i++ {
				hrow := h.Value.Row(i)
				nrow := n.Grad.Row(i)
				d := 0.0
				for j := range hrow {
					d += hrow[j] * nrow[j]
				}
				acc += d
			}
			eps.grad().Data[0] += acc
		}
	}
	return n
}

// ---- Fused affine ops ----

// Act selects an activation fused into AffineSum (and its wrappers Affine
// and Affine2). Every supported activation's derivative is recoverable
// from its output, so the fused backward needs no pre-activation buffer.
type Act int

// Fusable activations. The zero Act is the identity.
const (
	ActIdent     Act = iota
	ActLeakyReLU     // slope LeakySlope
	ActTanh
	ActSigmoid
)

// LeakySlope is the negative-side slope of every LeakyReLU in the model:
// ActLeakyReLU, Tape.LeakyReLU and the Eq. 11 pair kernel's hidden layer.
const LeakySlope = 0.2

func applyActSlice(data []float64, act Act) {
	switch act {
	case ActLeakyReLU:
		backendImpl.VLeakyReLU(data, LeakySlope)
	case ActTanh:
		VTanh(data)
	case ActSigmoid:
		VSigmoid(data)
	}
}

// actGradFromOutput returns d act(x)/dx expressed through y = act(x).
func actGradFromOutput(y float64, act Act) float64 {
	switch act {
	case ActLeakyReLU:
		if y > 0 {
			return 1
		}
		return LeakySlope
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

// Term is one product of an AffineSum: X times the rows [Off,
// Off+cols(X)) of W, a row block read in place. Terms that read
// consecutive blocks of one W compute [X₁ ‖ X₂ ‖ …]·W without the
// concatenation.
type Term struct {
	X, W *Node
	Off  int
}

// AffineSum computes act(Σ_k X_k·W_k[Off_k : Off_k+cols(X_k)] + b) as a
// single node. A linear layer over a concatenation reads each part
// against its block of the weight, so neither the N×Σd concatenation nor
// its gradient is ever stored. The forward accumulates the products in
// term order into one buffer, and the backward runs GemmNT and GemmTN per
// term on the blocks of W and of W's gradient. The backend contract
// (GemmNN and GemmTN add each product in ascending p; GemmNT sums from +0
// and adds once) makes every value and gradient bit-identical to
// ConcatCols followed by Affine wherever the parts' gradients start at
// zero, as they do when the concatenation is their first consumer in the
// sweep. A node may appear in several terms.
//
// The terms are copied onto the tape, so the caller's slice may live on
// its stack; neither the copy nor the block views allocate once the tape
// is warm.
func (t *Tape) AffineSum(b *Node, act Act, terms ...Term) *Node {
	if len(terms) == 0 {
		panic("tensor: AffineSum needs at least one term")
	}
	rows, cols := terms[0].X.Value.Rows, terms[0].W.Value.Cols
	if b.Value.Rows != 1 || b.Value.Cols != cols {
		panic(fmt.Sprintf("tensor: AffineSum needs 1x%d bias, got %s", cols, b.Value.shape()))
	}
	needGrad := b.needGrad
	for k, tm := range terms {
		x, w := tm.X.Value, tm.W.Value
		if x.Rows != rows || w.Cols != cols {
			panic(fmt.Sprintf("tensor: AffineSum term %d is %s x %s, want %d rows and %d columns",
				k, x.shape(), w.shape(), rows, cols))
		}
		if tm.Off < 0 || tm.Off+x.Cols > w.Rows {
			panic(fmt.Sprintf("tensor: AffineSum term %d reads rows [%d,%d) of a %s weight",
				k, tm.Off, tm.Off+x.Cols, w.shape()))
		}
		needGrad = needGrad || tm.X.needGrad || tm.W.needGrad
	}
	out := Get(rows, cols)
	for _, tm := range terms {
		MatMulInto(out, tm.X.Value, t.rowBlock(0, tm.W.Value, tm.Off, tm.X.Value.Cols))
	}
	out.AddRowVecInPlace(b.Value)
	applyActSlice(out.Data, act)
	lo := len(t.terms)
	t.terms = append(t.terms, terms...)
	hi := len(t.terms)
	n := t.op(out, needGrad)
	n.backward = func() {
		dPre, scratch := preGrad(n.Value, n.Grad, act)
		for _, tm := range t.terms[lo:hi] {
			c := tm.X.Value.Cols
			if tm.X.needGrad { // dX = dPre · W_blockᵀ
				backendImpl.GemmNT(tm.X.grad(), dPre, t.rowBlock(0, tm.W.Value, tm.Off, c))
			}
			if tm.W.needGrad { // dW_block = Xᵀ · dPre
				backendImpl.GemmTN(t.rowBlock(1, tm.W.grad(), tm.Off, c), tm.X.Value, dPre)
			}
		}
		if b.needGrad {
			g := b.grad()
			for i := 0; i < dPre.Rows; i++ {
				backendImpl.Add(g.Data, dPre.Row(i))
			}
		}
		if scratch {
			Put(dPre)
		}
	}
	return n
}

// rowBlock points the tape's view header i at rows [off, off+rows) of m
// and returns it. The rows of a row-major matrix are one contiguous run,
// so the view is a plain Matrix over m's buffer; the header is the
// tape's, so handing it to a backend kernel allocates nothing. A view is
// valid until the next rowBlock call with the same i.
func (t *Tape) rowBlock(i int, m *Matrix, off, rows int) *Matrix {
	v := &t.blocks[i]
	*v = Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[off*m.Cols : (off+rows)*m.Cols]}
	return v
}

// Affine computes act(x·W + b) as a single tape node: one output buffer
// and one backward closure replace the MatMul → AddRowVec → activation
// chain (three nodes, three full-size intermediates) of the unfused form.
// It is the one-term AffineSum.
func (t *Tape) Affine(x, w, b *Node, act Act) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != w.Value.Cols {
		panic(fmt.Sprintf("tensor: Affine needs 1x%d bias, got %s", w.Value.Cols, b.Value.shape()))
	}
	if x.Value.Cols != w.Value.Rows {
		panic(fmt.Sprintf("tensor: Affine shape mismatch %s x %s", x.Value.shape(), w.Value.shape()))
	}
	return t.AffineSum(b, act, Term{X: x, W: w})
}

// Affine2 computes act(x·Wx + h·Wh + b) as a single node, the two-term
// AffineSum over whole weights.
func (t *Tape) Affine2(x, wx, h, wh, b *Node, act Act) *Node {
	if b.Value.Rows != 1 || b.Value.Cols != wx.Value.Cols || wx.Value.Cols != wh.Value.Cols {
		panic(fmt.Sprintf("tensor: Affine2 bias/width mismatch %s vs %s vs %s",
			wx.Value.shape(), wh.Value.shape(), b.Value.shape()))
	}
	if x.Value.Cols != wx.Value.Rows || h.Value.Cols != wh.Value.Rows || h.Value.Rows != x.Value.Rows {
		panic(fmt.Sprintf("tensor: Affine2 shape mismatch %s x %s + %s x %s",
			x.Value.shape(), wx.Value.shape(), h.Value.shape(), wh.Value.shape()))
	}
	return t.AffineSum(b, act, Term{X: x, W: wx}, Term{X: h, W: wh})
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

// LeakyReLU applies x if x>0 else LeakySlope*x, elementwise.
func (t *Tape) LeakyReLU(a *Node) *Node {
	out := Get(a.Value.Rows, a.Value.Cols)
	for i, v := range a.Value.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = LeakySlope * v
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
					g.Data[i] += n.Grad.Data[i] * LeakySlope
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
	checkIndices("GatherRows", idx, a.Value.Rows)
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
	checkIndices("ScatterAddRows", idx, outRows)
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

// checkIndices panics unless every index lies in [0, n).
func checkIndices(op string, idx []int, n int) {
	for k, i := range idx {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("tensor: %s index %d = %d outside [0, %d)", op, k, i, n))
		}
	}
}

// PairMLP scores E node pairs through one head of a two-layer pair MLP
// whose linear first layer was hoisted out of the pairs,
// W₁(sᵢ−sⱼ)+b₁ = (SW₁)ᵢ − (SW₁)ⱼ + b₁ — the Eq. 11 heads of internal/core.
// p holds S·W₁ with one row per node; the head's d_h hidden units are its
// columns [lo, lo+d_h), b1 (1×d_h) their bias, w2 (d_h×K) and b2 (1×K) the
// second layer. The output is E×K:
//
//	out[k][q] = Σ_r w2[r][q] · leaky((p[src[k]][lo+r] − p[dst[k]][lo+r]) + b1[r]) + b2[q]
//
// The forward runs the decode's PairLogits kernel once per run of equal
// src, so nothing but the output is stored: the backward recomputes the
// hidden units pairMLPChunk pairs at a time into arena scratch. It fixes
// each gradient element's accumulation order to the one the unfused
// chain (hidden block, W₂ᵀ product, transposes and bias add) had, so both
// train to the same bits: see pairMLPGrads.
func (t *Tape) PairMLP(p, b1, w2, b2 *Node, lo int, src, dst []int) *Node {
	dh, kq, e := b1.Value.Cols, w2.Value.Cols, len(src)
	if b1.Value.Rows != 1 || dh == 0 || w2.Value.Rows != dh || kq == 0 ||
		b2.Value.Rows != 1 || b2.Value.Cols != kq || lo < 0 || lo+dh > p.Value.Cols || len(dst) != e {
		panic(fmt.Sprintf("tensor: PairMLP columns [%d,%d) of %s with b1 %s, w2 %s, b2 %s, %d src vs %d dst",
			lo, lo+dh, p.Value.shape(), b1.Value.shape(), w2.Value.shape(), b2.Value.shape(), e, len(dst)))
	}
	checkIndices("PairMLP", src, p.Value.Rows)
	checkIndices("PairMLP", dst, p.Value.Rows)
	out := Get(e, kq)
	if e > 0 {
		w2T, logits := transposed(w2.Value), getUnzeroed(kq, e) // the kernel's K×d_h weights, K×E output
		pd, ld := p.Value.Data, p.Value.Cols
		for a := 0; a < e; {
			b := a + 1
			for b < e && src[b] == src[a] {
				b++
			}
			backendImpl.PairLogits(logits.Data[a:], e, w2T.Data, kq, dh, pd[src[a]*ld+lo:][:dh], b1.Value.Data,
				pd[lo:], ld, dst[a:b], b-a, LeakySlope)
			a = b
		}
		for k := 0; k < e; k++ {
			for q, bias := range b2.Value.Data {
				out.Data[k*kq+q] = logits.Data[q*e+k] + bias
			}
		}
		Put(w2T)
		Put(logits)
	}
	n := t.op(out, anyGrad(p, b1, w2, b2))
	n.backward = func() {
		if b2.needGrad {
			g := b2.grad()
			for k := 0; k < e; k++ {
				backendImpl.Add(g.Data, n.Grad.Row(k))
			}
		}
		if p.needGrad || b1.needGrad || w2.needGrad {
			pairMLPGrads(p, b1, w2, lo, src, dst, n.Grad)
		}
	}
	return n
}

// pairMLPChunk is how many pairs' hidden units PairMLP's backward
// recomputes at a time: two chunk×d_h scratch blocks instead of the
// d_h×E block a stored forward would keep.
const pairMLPChunk = 256

// transposed returns mᵀ in arena scratch the caller Puts.
func transposed(m *Matrix) *Matrix {
	out := getUnzeroed(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// pairMLPGrads is PairMLP's backward into p, b1 and w2, given the output
// gradient g (E×K). Per chunk it recomputes the hidden units H (pairs as
// rows), adds Hᵀ·g into the d_h×K sums of dW₂ (GemmTN), forms the hidden
// gradient g·W₂ᵀ (GemmNN) times LeakyReLU' (VActGrad), and scatters that,
// pair by pair, into p's gradient rows (+ at src, − at dst) and into
// b1's sums. Per gradient element this is the order the unfused chain
// accumulated in:
//
//   - dW₂[r][q] += S[q][r], S summed from +0 over the pairs k ascending;
//   - the hidden gradient is (+0 + w₀g₀) + w₁g₁ …, q ascending, times
//     LeakyReLU' of the same hidden unit;
//   - dp[src][lo+r] += v and dp[dst][lo+r] −= v, k ascending, += first
//     for a self pair;
//   - db₁[r] += (Σ v from +0, k ascending).
//
// GemmNN and GemmTN skip zero multipliers where the chain's kernels
// skipped others or none; for finite values that changes nothing, since
// every sum starts at +0 and so is never −0.
func pairMLPGrads(p, b1, w2 *Node, lo int, src, dst []int, g *Matrix) {
	dh, kq, e := b1.Value.Cols, w2.Value.Cols, len(src)
	rows := min(e, pairMLPChunk)
	hid, gc := getUnzeroed(rows, dh), getUnzeroed(rows, kq)
	var w2T, dHid, sW2, sB1, gp *Matrix
	if p.needGrad || b1.needGrad {
		w2T, dHid = transposed(w2.Value), Get(rows, dh)
	}
	if w2.needGrad {
		sW2 = Get(dh, kq)
	}
	if b1.needGrad {
		sB1 = Get(1, dh)
	}
	if p.needGrad {
		gp = p.grad()
	}
	pd, ld, bias := p.Value.Data, p.Value.Cols, b1.Value.Data
	for k0 := 0; k0 < e; k0 += pairMLPChunk {
		k1 := min(k0+pairMLPChunk, e)
		c := k1 - k0
		hid.Rows, hid.Data = c, hid.Data[:c*dh]
		for k := k0; k < k1; k++ {
			h, ps, pq := hid.Row(k-k0), pd[src[k]*ld+lo:][:dh], pd[dst[k]*ld+lo:][:dh]
			for r := range h {
				h[r] = (ps[r] - pq[r]) + bias[r]
			}
		}
		backendImpl.VLeakyReLU(hid.Data, LeakySlope)
		gc.Rows, gc.Data = c, gc.Data[:c*kq]
		copy(gc.Data, g.Data[k0*kq:k1*kq])
		if sW2 != nil {
			backendImpl.GemmTN(sW2, hid, gc)
		}
		if dHid == nil {
			continue
		}
		dHid.Rows, dHid.Data = c, dHid.Data[:c*dh]
		clear(dHid.Data)
		backendImpl.GemmNN(dHid, gc, w2T)
		backendImpl.VActGrad(dHid.Data, dHid.Data, hid.Data, ActLeakyReLU)
		for k := k0; k < k1; k++ {
			v := dHid.Row(k - k0)
			if gp != nil {
				backendImpl.Add(gp.Data[src[k]*ld+lo:][:dh], v)
				backendImpl.AxpyRow(gp.Data[dst[k]*ld+lo:][:dh], v, -1)
			}
			if sB1 != nil {
				backendImpl.Add(sB1.Data, v)
			}
		}
	}
	if sW2 != nil {
		w2.grad().AddInPlace(sW2)
		Put(sW2)
	}
	if sB1 != nil {
		b1.grad().AddInPlace(sB1)
		Put(sB1)
	}
	Put(hid)
	Put(gc)
	Put(w2T)
	Put(dHid)
}

// GAT aggregates the rows of wh (N×d_h, one per node) over the E edges
// src[k] → dst[k] with single-head graph attention (Veličković et al.),
// the Eq. 12 layer of the attribute decoder, as one node:
//
//	pre_k  = (wh[src_k]·aSrcW + aSrcB) + (wh[dst_k]·aDstW + aDstB)
//	α_k    = softmax over the edges into dst_k of LeakyReLU(pre_k)
//	out[i] = Σ_{k: dst_k = i} α_k · wh[src_k], k ascending
//
// aSrcW and aDstW are d_h×1, aSrcB and aDstB 1×1, and every index lies in
// [0, n) with n = N. It computes, to the bit, what the chain GatherRows
// (both ends) → a linear layer per end → Add → LeakyReLU → segment
// softmax → row scaling → ScatterAddRows computes, without that chain's
// E×d_h gathered rows, products and gradients. The two attention logits
// are taken once per node, which is exact: a gathered row is a copy, and
// each GEMM row reads only its own multipliers. Besides the N×d_h output
// the op keeps α (E×1) and the per-node logits (2N×1), in one buffer on a
// node of its own recorded just before the output, so the sweep releases
// it right after the output's backward has read it. gatGrads gives the
// backward's order.
func (t *Tape) GAT(wh, aSrcW, aSrcB, aDstW, aDstB *Node, src, dst []int, n int) *Node {
	dh, e := wh.Value.Cols, len(src)
	if aSrcW.Value.Rows != dh || aSrcW.Value.Cols != 1 || aDstW.Value.Rows != dh || aDstW.Value.Cols != 1 ||
		aSrcB.Value.Rows != 1 || aSrcB.Value.Cols != 1 || aDstB.Value.Rows != 1 || aDstB.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: GAT needs %dx1 attention weights and 1x1 biases, got %s, %s, %s, %s",
			dh, aSrcW.Value.shape(), aSrcB.Value.shape(), aDstW.Value.shape(), aDstB.Value.shape()))
	}
	if wh.Value.Rows != n || len(dst) != e {
		panic(fmt.Sprintf("tensor: GAT over %s for %d nodes, %d src vs %d dst", wh.Value.shape(), n, e, len(dst)))
	}
	checkIndices("GAT", src, n)
	checkIndices("GAT", dst, n)
	keep := Get(e+2*n, 1) // α, then the src and the dst logit of each node
	alpha, eSrc, eDst := keep.Data[:e], keep.Data[e:e+n], keep.Data[e+n:]
	v := t.rowBlock(0, keep, e, n)
	MatMulInto(v, wh.Value, aSrcW.Value)
	v.AddRowVecInPlace(aSrcB.Value)
	v = t.rowBlock(0, keep, e+n, n)
	MatMulInto(v, wh.Value, aDstW.Value)
	v.AddRowVecInPlace(aDstB.Value)
	for k := range alpha {
		if pre := eSrc[src[k]] + eDst[dst[k]]; pre > 0 {
			alpha[k] = pre
		} else {
			alpha[k] = LeakySlope * pre
		}
	}
	segmentSoftmax(alpha, dst, n)
	out := Get(n, dh)
	for k, i := range dst {
		orow, hrow, s := out.Row(i), wh.Value.Row(src[k]), alpha[k]
		for j := range orow {
			orow[j] += float64(hrow[j] * s) // rounded before the add, as the chain stored it
		}
	}
	t.op(keep, false)
	node := t.op(out, anyGrad(wh, aSrcW, aSrcB, aDstW, aDstB))
	node.backward = func() {
		t.gatGrads(wh, aSrcW, aSrcB, aDstW, aDstB, src, dst, keep.Data, node.Grad)
	}
	return node
}

// segmentSoftmax replaces a (one value per edge) with its softmax within
// each segment, the edges sharing seg[k] < nSeg: the maxima, then the
// exponentials and their sums, then the division, each over k ascending.
// Its maxima and sums are arena scratch returned before it does.
func segmentSoftmax(a []float64, seg []int, nSeg int) {
	scratch := Get(2, nSeg)
	mx, sum := scratch.Row(0), scratch.Row(1)
	for i := range mx {
		mx[i] = math.Inf(-1)
	}
	for k, v := range a {
		if v > mx[seg[k]] {
			mx[seg[k]] = v
		}
	}
	for k, v := range a {
		v = math.Exp(v - mx[seg[k]])
		a[k] = v
		sum[seg[k]] += v
	}
	for k := range a {
		if s := sum[seg[k]]; s > 0 {
			a[k] /= s
		}
	}
	Put(scratch)
}

// gatGrads is GAT's backward, given the op's kept buffer (α, then the
// per-node logits) and the output gradient g (N×d_h). It runs the
// replaced chain's backward closures in the reverse of their recording
// order, so each gradient element sees the chain's sums in the chain's
// order:
//
//   - dα_k = 0 + (Σ_j wh[src_k][j]·g[dst_k][j] from +0, j ascending);
//   - the segment softmax backward through per-segment dot products
//     (k ascending), then LeakyReLU' of the recomputed pre_k, gives the
//     logit gradient d_k both attention layers share;
//   - the dst layer's weight (GemmTN, k ascending) and bias (k ascending)
//     gradients, then the src layer's;
//   - every dst-side row 0 + d_k·aDstWᵀ (GemmNT) added into dwh[dst_k],
//     k ascending, before every src-side row (0 + g[dst_k]·α_k) +
//     d_k·aSrcWᵀ into dwh[src_k].
//
// The rows the GEMMs read or write are built pairMLPChunk edges at a time
// in arena scratch, so nothing E×d_h is held.
func (t *Tape) gatGrads(wh, aSrcW, aSrcB, aDstW, aDstB *Node, src, dst []int, keep []float64, g *Matrix) {
	e, n := len(src), wh.Value.Rows
	alpha, eSrc, eDst := keep[:e], keep[e:e+n], keep[e+n:]
	d, dotM := Get(e, 1), Get(1, n)
	dot := dotM.Data
	for k := range d.Data {
		hrow, grow, s := wh.Value.Row(src[k]), g.Row(dst[k]), 0.0
		for j := range hrow {
			s += hrow[j] * grow[j]
		}
		d.Data[k] += s
	}
	for k, i := range dst {
		dot[i] += alpha[k] * d.Data[k]
	}
	for k, i := range dst {
		v := alpha[k] * (d.Data[k] - dot[i])
		if !(eSrc[src[k]]+eDst[i] > 0) {
			v *= LeakySlope
		}
		d.Data[k] = 0 + v // the chain added it into zeroed gradients
	}
	Put(dotM)
	blk := getUnzeroed(min(e, pairMLPChunk), wh.Value.Cols)
	t.gatLayerGrads(aDstW, aDstB, wh.Value, dst, d, blk)
	t.gatLayerGrads(aSrcW, aSrcB, wh.Value, src, d, blk)
	if wh.needGrad {
		gwh := wh.grad()
		t.gatRowGrads(gwh, aDstW.Value, dst, d, blk, nil, nil, nil)
		t.gatRowGrads(gwh, aSrcW.Value, src, d, blk, g, dst, alpha)
	}
	Put(blk)
	Put(d)
}

// gatLayerGrads adds into the gradients of one attention layer (w, b)
// what it owes for the logit gradients d (E×1) over its inputs wh[idx[k]]:
// Σ_k wh[idx[k]]ᵀ·d_k by GemmTN on chunks of gathered rows in blk, then
// Σ_k d_k into the bias, k ascending in both.
func (t *Tape) gatLayerGrads(w, b *Node, wh *Matrix, idx []int, d, blk *Matrix) {
	if w.needGrad {
		gw := w.grad()
		for k0 := 0; k0 < len(idx); k0 += pairMLPChunk {
			x, dk := t.gatChunk(blk, d, k0)
			for r := range x.Rows {
				copy(x.Row(r), wh.Row(idx[k0+r]))
			}
			backendImpl.GemmTN(gw, x, dk)
		}
	}
	if b.needGrad {
		gb := b.grad()
		for _, v := range d.Data {
			gb.Data[0] += v
		}
	}
}

// gatRowGrads adds into gwh[idx[k]], k ascending, the gradient of the
// layer input row k: d_k·wᵀ (GemmNT), after (0 + g[gi[k]]·α_k) when g is
// not nil, the source rows' share of the aggregation.
func (t *Tape) gatRowGrads(gwh, w *Matrix, idx []int, d, blk, g *Matrix, gi []int, alpha []float64) {
	for k0 := 0; k0 < len(idx); k0 += pairMLPChunk {
		x, dk := t.gatChunk(blk, d, k0)
		clear(x.Data)
		if g != nil {
			for r := range x.Rows {
				xrow, grow, s := x.Row(r), g.Row(gi[k0+r]), alpha[k0+r]
				for j := range xrow {
					xrow[j] += grow[j] * s
				}
			}
		}
		backendImpl.GemmNT(x, dk, w)
		for r := range x.Rows {
			backendImpl.Add(gwh.Row(idx[k0+r]), x.Row(r))
		}
	}
}

// gatChunk sizes blk to the edges [k0, min(k0+pairMLPChunk, E)) of the
// E×1 d and returns it with the tape's view of those rows of d.
func (t *Tape) gatChunk(blk, d *Matrix, k0 int) (x, dk *Matrix) {
	c := min(pairMLPChunk, d.Rows-k0)
	blk.Rows, blk.Data = c, blk.Data[:c*blk.Cols]
	return blk, t.rowBlock(1, d, k0, c)
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
// The backward recomputes each row's dot product and norms the way the
// forward did, so it holds no per-row state between the two.
func (t *Tape) SCELoss(xhat *Node, x *Matrix, alpha float64) *Node {
	if !xhat.Value.SameShape(x) {
		panic(fmt.Sprintf("tensor: SCELoss shape mismatch %s vs %s", xhat.Value.shape(), x.shape()))
	}
	rows := x.Rows
	loss := 0.0
	for i := 0; i < rows; i++ {
		_, _, _, cos := sceRow(x.Row(i), xhat.Value.Row(i))
		loss += math.Pow(math.Max(1-cos, 0), alpha)
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
			xr, hr := x.Row(i), xhat.Value.Row(i)
			nx, nxh, dot, cos := sceRow(xr, hr)
			base := 1 - cos
			if base < 0 {
				base = 0
			}
			// d/dcos of (1-cos)^alpha = -alpha*(1-cos)^(alpha-1)
			coef := -alpha * math.Pow(base+sceEps, alpha-1) * d
			grow := g.Row(i)
			inv := 1 / (nx * nxh)
			for j := range xr {
				dcos := xr[j]*inv - dot*hr[j]/(nx*nxh*nxh*nxh)
				grow[j] += coef * dcos
			}
		}
	}
	return n
}

// sceEps keeps SCELoss's norms and its gradient's base off zero.
const sceEps = 1e-9

// sceRow returns the norms of x and x̂ (each plus sceEps), their dot
// product and their cosine: the per-row terms of SCELoss.
func sceRow(xr, hr []float64) (nx, nxh, dot, cos float64) {
	var a2, b2 float64
	for j := range xr {
		dot += xr[j] * hr[j]
		a2 += xr[j] * xr[j]
		b2 += hr[j] * hr[j]
	}
	nx = math.Sqrt(a2) + sceEps
	nxh = math.Sqrt(b2) + sceEps
	return nx, nxh, dot, dot / (nx * nxh)
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
// All four inputs must share a shape. The forward and the backward each
// compute σq² and σp² into arena scratch of their own, to the same bits,
// rather than hold them from one to the other.
func (t *Tape) GaussianKL(muQ, logSigQ, muP, logSigP *Node) *Node {
	shape := muQ.Value
	for _, o := range []*Node{logSigQ, muP, logSigP} {
		if !o.Value.SameShape(shape) {
			panic("tensor: GaussianKL shape mismatch")
		}
	}
	size := len(shape.Data)
	v := klVariances(logSigQ.Value, logSigP.Value)
	sq2, sp2 := v.Row(0), v.Row(1)
	kl := 0.0
	for i := 0; i < size; i++ {
		dm := muQ.Value.Data[i] - muP.Value.Data[i]
		kl += logSigP.Value.Data[i] - logSigQ.Value.Data[i] + (sq2[i]+dm*dm)/(2*sp2[i]) - 0.5
	}
	Put(v)
	out := Get(1, 1)
	out.Data[0] = kl
	n := t.op(out, anyGrad(muQ, logSigQ, muP, logSigP))
	n.backward = func() {
		v := klVariances(logSigQ.Value, logSigP.Value)
		sq2, sp2 := v.Row(0), v.Row(1)
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
		Put(v)
	}
	return n
}

// klVariances returns GaussianKL's σq² (row 0) and σp² (row 1), σ =
// exp(log σ) with log σ clamped to [-20, 20], in a 2×size arena matrix
// the caller returns with Put.
func klVariances(logSigQ, logSigP *Matrix) *Matrix {
	size := len(logSigQ.Data)
	v := Get(2, size)
	for i, x := range logSigQ.Data {
		v.Data[i] = clamp(x, -20, 20)
	}
	for i, x := range logSigP.Data {
		v.Data[size+i] = clamp(x, -20, 20)
	}
	VExp(v.Data)
	for i, s := range v.Data {
		v.Data[i] = s * s
	}
	return v
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
