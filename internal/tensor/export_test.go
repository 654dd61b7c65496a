package tensor

import "math"

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
			out.Data[i*s.Cols+s.ColIdx[p]] += s.Val[p]
		}
	}
	return out
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
