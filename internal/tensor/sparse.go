package tensor

import (
	"fmt"
	"sync"
)

// CSR is a compressed-sparse-row matrix used for graph adjacency in message
// passing. Values default to 1.0 (unweighted edges) but arbitrary weights are
// supported. CSR matrices are constants with respect to autodiff: gradients
// never flow into the sparsity pattern or the values.
//
// The pattern is immutable after construction; build a new CSR to change
// it. That immutability is what lets MulDenseT memoise its transpose index
// and lets snapshots cache CSR forms across encoder layers and epochs.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len nnz
	Val        []float64 // len nnz

	// Lazily built transpose (CSC) index for MulDenseT: entry q of column
	// j originates from row tRowIdx[q] with value tVal[q]. Entries within
	// a column are in ascending source-row order, so gather-based products
	// accumulate in exactly the order the serial scatter form did.
	tOnce   sync.Once
	tColPtr []int
	tRowIdx []int
	tVal    []float64
}

// NewCSR assembles a CSR matrix from coordinate-format triplets. Duplicate
// coordinates are kept as separate entries (their effects add under SpMM).
func NewCSR(rows, cols int, ri, ci []int, val []float64) *CSR {
	if len(ri) != len(ci) {
		panic("tensor: NewCSR len(ri) != len(ci)")
	}
	if val != nil && len(val) != len(ri) {
		panic("tensor: NewCSR len(val) != len(ri)")
	}
	counts := make([]int, rows+1)
	for _, r := range ri {
		if r < 0 || r >= rows {
			panic(fmt.Sprintf("tensor: NewCSR row %d out of range [0,%d)", r, rows))
		}
		counts[r+1]++
	}
	for i := 0; i < rows; i++ {
		counts[i+1] += counts[i]
	}
	rowPtr := counts
	colIdx := make([]int, len(ri))
	vals := make([]float64, len(ri))
	next := make([]int, rows)
	copy(next, rowPtr[:rows])
	for k, r := range ri {
		c := ci[k]
		if c < 0 || c >= cols {
			panic(fmt.Sprintf("tensor: NewCSR col %d out of range [0,%d)", c, cols))
		}
		p := next[r]
		next[r]++
		colIdx[p] = c
		if val != nil {
			vals[p] = val[k]
		} else {
			vals[p] = 1
		}
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: vals}
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
// have shape s.Rows×d.Cols.
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
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			j, w := s.ColIdx[p], s.Val[p]
			axpyRow(orow, d.Data[j*n:(j+1)*n], w)
		}
	}
}

// buildT materialises the transpose index once per CSR. Safe for
// concurrent callers.
func (s *CSR) buildT() {
	s.tOnce.Do(func() {
		nnz := s.NNZ()
		colPtr := make([]int, s.Cols+1)
		for _, c := range s.ColIdx {
			colPtr[c+1]++
		}
		for j := 0; j < s.Cols; j++ {
			colPtr[j+1] += colPtr[j]
		}
		rowIdx := make([]int, nnz)
		tVal := make([]float64, nnz)
		next := make([]int, s.Cols)
		copy(next, colPtr[:s.Cols])
		for i := 0; i < s.Rows; i++ {
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				c := s.ColIdx[p]
				q := next[c]
				next[c]++
				rowIdx[q] = i
				tVal[q] = s.Val[p]
			}
		}
		s.tColPtr, s.tRowIdx, s.tVal = colPtr, rowIdx, tVal
	})
}

// MulDenseT returns sᵀ * d as a dense matrix. Instead of scattering into
// shared output rows, it gathers through the memoised transpose index, so
// each output row has a single writer: the product parallelises without
// locks or per-worker scratch and stays deterministic.
func (s *CSR) MulDenseT(d *Matrix) *Matrix {
	s.checkMulDenseT(d)
	out := Get(s.Cols, d.Cols)
	s.MulDenseTInto(out, d)
	return out
}

// MulDenseTInto accumulates sᵀ·d into out (out += sᵀ·d), which must
// already have shape s.Cols×d.Cols. The autodiff SpMM backward uses this
// to add straight into gradient buffers.
func (s *CSR) MulDenseTInto(out, d *Matrix) {
	s.checkMulDenseT(d)
	if out.Rows != s.Cols || out.Cols != d.Cols {
		panic(fmt.Sprintf("tensor: CSR.MulDenseTInto output %dx%d, want %dx%d", out.Rows, out.Cols, s.Cols, d.Cols))
	}
	s.buildT()
	if s.NNZ()*d.Cols >= spmmParallelFlops {
		parallelRows(s.Cols, func(lo, hi int) { s.mulDenseTRange(out, d, lo, hi) })
		return
	}
	s.mulDenseTRange(out, d, 0, s.Cols)
}

func (s *CSR) checkMulDenseT(d *Matrix) {
	if s.Rows != d.Rows {
		panic(fmt.Sprintf("tensor: CSR.MulDenseT shape mismatch %dx%d^T x %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
}

func (s *CSR) mulDenseTRange(out, d *Matrix, lo, hi int) {
	n := d.Cols
	for j := lo; j < hi; j++ {
		orow := out.Data[j*n : (j+1)*n]
		for q := s.tColPtr[j]; q < s.tColPtr[j+1]; q++ {
			i, w := s.tRowIdx[q], s.tVal[q]
			axpyRow(orow, d.Data[i*n:(i+1)*n], w)
		}
	}
}

// Transpose returns a new CSR holding sᵀ.
func (s *CSR) Transpose() *CSR {
	ri := make([]int, 0, s.NNZ())
	ci := make([]int, 0, s.NNZ())
	val := make([]float64, 0, s.NNZ())
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			ri = append(ri, s.ColIdx[p])
			ci = append(ci, i)
			val = append(val, s.Val[p])
		}
	}
	return NewCSR(s.Cols, s.Rows, ri, ci, val)
}
