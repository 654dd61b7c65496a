package tensor

import "fmt"

// CSR is a compressed-sparse-row 0/1 pattern used for graph adjacency in
// message passing: every stored entry is a 1, and a coordinate stored
// twice counts twice under MulDense. CSR matrices are constants with
// respect to autodiff: gradients never flow into the pattern.
//
// T points at the pattern's transpose, whose T points back, so the SpMM
// backward multiplies by the transpose its forward's adjacency came with.
// LinkTranspose builds the pair; NewCSR and dyngraph's snapshots call it.
// The pattern is immutable after construction; build a new pair to change
// it. That immutability is what lets snapshots cache the pair across
// encoder layers and epochs.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len nnz
	T          *CSR  // the transpose, nil until LinkTranspose
}

// NewCSR assembles a CSR pattern and its transpose from coordinate-format
// pairs. Duplicate coordinates are kept as separate entries, and each
// row's entries keep their order in ri and ci.
func NewCSR(rows, cols int, ri, ci []int) *CSR {
	if len(ri) != len(ci) {
		panic("tensor: NewCSR len(ri) != len(ci)")
	}
	for k, r := range ri {
		if r < 0 || r >= rows {
			panic(fmt.Sprintf("tensor: NewCSR row %d out of range [0,%d)", r, rows))
		}
		if c := ci[k]; c < 0 || c >= cols {
			panic(fmt.Sprintf("tensor: NewCSR col %d out of range [0,%d)", c, cols))
		}
	}
	// Entry k is row k of an nnz×rows pattern holding ri[k]; row r of its
	// transpose lists row r's entries in input order.
	byEntry := &CSR{Rows: len(ri), Cols: rows, RowPtr: make([]int, len(ri)+1), ColIdx: ri}
	for k := range byEntry.RowPtr {
		byEntry.RowPtr[k] = k
	}
	t := byEntry.LinkTranspose(nil)
	for p, k := range t.ColIdx {
		t.ColIdx[p] = ci[k]
	}
	a := &CSR{Rows: rows, Cols: cols, RowPtr: t.RowPtr, ColIdx: t.ColIdx}
	a.LinkTranspose(nil)
	return a
}

// LinkTranspose builds aᵀ into t's arrays when t is non-nil and they have
// the room, and into new ones otherwise, and links the pair: a.T is t and
// t.T is a. It is the one routine that turns a pattern into its
// transpose. Row j of aᵀ lists the rows of a that hold column j in
// ascending order, which is the order every product by aᵀ sums in. The
// column indices of a must lie in [0, a.Cols).
func (a *CSR) LinkTranspose(t *CSR) *CSR {
	if t == nil {
		t = new(CSR)
	}
	rowPtr, colIdx := resize(t.RowPtr, a.Cols+1), resize(t.ColIdx, a.NNZ())
	// A counting sort by column: rowPtr[j] counts column j's entries,
	// then (a running sum) marks the end of row j of aᵀ; placing a's
	// entries last to first moves it back to the row's start and leaves
	// each row's sources ascending.
	clear(rowPtr)
	for _, c := range a.ColIdx {
		rowPtr[c]++
	}
	for j := 1; j <= a.Cols; j++ {
		rowPtr[j] += rowPtr[j-1]
	}
	for i := a.Rows - 1; i >= 0; i-- {
		for p := a.RowPtr[i+1] - 1; p >= a.RowPtr[i]; p-- {
			c := a.ColIdx[p]
			rowPtr[c]--
			colIdx[rowPtr[c]] = i
		}
	}
	*t = CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: rowPtr, ColIdx: colIdx, T: a}
	a.T = t
	return t
}

// resize returns s with length n, reusing its array when it has the room.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// NNZ returns the number of stored entries.
func (s *CSR) NNZ() int { return len(s.ColIdx) }

// spmmParallelFlops is the minimum nnz×cols work before SpMM fans out.
const spmmParallelFlops = 1 << 15

// MulDense returns s * d as a dense matrix allocated from the pooled
// arena. Large products partition output rows across GOMAXPROCS workers;
// every output row is owned by one worker, so results are bit-identical
// to the serial path.
func (s *CSR) MulDense(d *Matrix) *Matrix {
	s.checkMulDense(d)
	out := Get(s.Rows, d.Cols)
	s.MulDenseInto(out, d)
	return out
}

// MulDenseInto accumulates s·d into out (out += s·d), which must already
// have shape s.Rows×d.Cols. The SpMM and GIN backwards call it on the
// transpose to add straight into gradient buffers.
func (s *CSR) MulDenseInto(out, d *Matrix) {
	s.checkMulDense(d)
	if out.Rows != s.Rows || out.Cols != d.Cols {
		panic(fmt.Sprintf("tensor: CSR.MulDenseInto output %dx%d, want %dx%d", out.Rows, out.Cols, s.Rows, d.Cols))
	}
	if s.NNZ()*d.Cols >= spmmParallelFlops {
		parallelRows(s.Rows, func(lo, hi int) { s.mulDenseRange(out, d, lo, hi) })
		return
	}
	s.mulDenseRange(out, d, 0, s.Rows)
}

func (s *CSR) checkMulDense(d *Matrix) {
	if s.Cols != d.Rows {
		panic(fmt.Sprintf("tensor: CSR.MulDense shape mismatch %dx%d x %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
}

func (s *CSR) mulDenseRange(out, d *Matrix, lo, hi int) {
	n := d.Cols
	for i := lo; i < hi; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for _, j := range s.ColIdx[s.RowPtr[i]:s.RowPtr[i+1]] {
			backendImpl.Add(orow, d.Data[j*n:(j+1)*n])
		}
	}
}
