// Package tensor provides dense float64 matrices and a reverse-mode
// automatic differentiation engine sufficient for training graph neural
// networks with the Go standard library only.
//
// The package has two layers:
//
//   - Matrix: a plain row-major dense matrix with BLAS-like kernels
//     (MatMul, axpy-style updates, elementwise maps).
//   - Tape / Node: a dynamic computation graph recorded op-by-op; calling
//     Tape.Backward walks the graph in reverse topological order and
//     accumulates vector-Jacobian products into Node.Grad.
//
// All shapes are two dimensional. Vectors are represented as 1×n or n×1
// matrices; scalars as 1×1. This matches what the VRDAG model needs while
// keeping indexing predictable and allocation-friendly.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zero-initialised matrix with the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major) in a matrix. The slice is used directly,
// not copied; len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("tensor: FromRows ragged input")
		}
		copy(m.Data[i*c:(i+1)*c], r)
	}
	return m
}

// Randn fills a new matrix with N(0, std²) samples from rng.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// RandUniform fills a new matrix with Uniform(lo, hi) samples from rng.
func RandUniform(rows, cols int, lo, hi float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets every entry of m to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) shape() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%s)[", m.shape())
	n := len(m.Data)
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", m.Data[i])
	}
	if n < len(m.Data) {
		s += " ..."
	}
	return s + "]"
}

// AddInPlace adds o into m elementwise.
func (m *Matrix) AddInPlace(o *Matrix) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %s vs %s", m.shape(), o.shape()))
	}
	backendImpl.Add(m.Data, o.Data)
}

// ScaleInPlace multiplies every entry of m by s.
func (m *Matrix) ScaleInPlace(s float64) {
	backendImpl.Scale(m.Data, s)
}

// Axpy performs m += a*o elementwise.
func (m *Matrix) Axpy(a float64, o *Matrix) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: Axpy shape mismatch %s vs %s", m.shape(), o.shape()))
	}
	backendImpl.AxpyRow(m.Data, o.Data, a)
}

// MatMul returns a*b using a cache-blocked ikj loop order, allocated from
// the pooled arena. Large products (≥ parallelThreshold result rows with
// enough work per row) fan out across GOMAXPROCS goroutines; the row
// partition is deterministic and each output row is owned by exactly one
// worker, so results are bit-identical to the serial path.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %s x %s", a.shape(), b.shape()))
	}
	out := Get(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto accumulates a·b into out (out += a·b). out must already have
// shape a.Rows×b.Cols; writing into a pooled or reused buffer avoids the
// per-product allocation of MatMul. Parallelises exactly like MatMul.
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %s x %s -> %s", a.shape(), b.shape(), out.shape()))
	}
	if a.Rows >= parallelThreshold && a.Cols*b.Cols >= 4096 {
		parallelRows(a.Rows, func(lo, hi int) {
			sub := &Matrix{Rows: hi - lo, Cols: a.Cols, Data: a.Data[lo*a.Cols : hi*a.Cols]}
			osub := &Matrix{Rows: hi - lo, Cols: b.Cols, Data: out.Data[lo*b.Cols : hi*b.Cols]}
			backendImpl.GemmNN(osub, sub, b)
		})
		return
	}
	backendImpl.GemmNN(out, a, b)
}

// parallelThreshold is the minimum row count before MatMul fans out.
const parallelThreshold = 128

// matMulKBlock is the panel height of the blocked kernel: 128 rows of b
// stay resident in L2 while every output row streams past them.
const matMulKBlock = 128

// parallelRows splits [0, n) into contiguous chunks, one per worker. With
// a single worker f runs on the calling goroutine.
func parallelRows(n int, f func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// axpyRow computes dst += a*src over equal-length slices on the active
// compute backend. Every backend preserves ascending-index accumulation
// order, so callers stay bit-identical to a plain loop.
func axpyRow(dst, src []float64, a float64) {
	backendImpl.AxpyRow(dst, src, a)
}

// Transpose returns a copy of mᵀ.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Apply returns a new matrix with f applied elementwise.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// AddRowVecInPlace adds the 1×cols row vector b to every row of m (bias add).
func (m *Matrix) AddRowVecInPlace(b *Matrix) {
	if b.Rows != 1 || b.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVecInPlace needs 1x%d bias, got %s", m.Cols, b.shape()))
	}
	backendImpl.AddRowVec(m.Data[:m.Rows*m.Cols], m.Cols, b.Data)
}

// Sum returns the sum of all entries.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Equal reports whether m and o agree within tol elementwise.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}
