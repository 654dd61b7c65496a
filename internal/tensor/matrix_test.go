package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) wrong shape: %v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialise")
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("At returned wrong values: %v", m)
	}
	m.Set(1, 1, 42)
	if m.At(1, 1) != 42 {
		t.Fatal("Set failed")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %v", m)
	}
}

func TestEye(t *testing.T) {
	m := Eye(3)
	want := FromSlice(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	if !m.Equal(want, 0) {
		t.Fatalf("Eye(3) = %v", m)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(4, 4, 1, rng)
	if !MatMul(a, Eye(4)).Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !MatMul(Eye(4), a).Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched inner dims")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := a.Transpose()
	want := FromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !got.Equal(want, 0) {
		t.Fatalf("Transpose = %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(r, c, 1, rng)
		return a.Transpose().Transpose().Equal(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ == BᵀAᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		return lhs.Equal(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestAxpyAndScale(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	a.Axpy(2, b)
	want := FromSlice(1, 3, []float64{21, 42, 63})
	if !a.Equal(want, 0) {
		t.Fatalf("Axpy = %v", a)
	}
	a.ScaleInPlace(0.5)
	want = FromSlice(1, 3, []float64{10.5, 21, 31.5})
	if !a.Equal(want, 1e-12) {
		t.Fatalf("ScaleInPlace = %v", a)
	}
}

func TestSum(t *testing.T) {
	a := FromSlice(2, 2, []float64{3, 4, 0, 0})
	if a.Sum() != 7 {
		t.Fatalf("Sum = %v", a.Sum())
	}
}

func TestApply(t *testing.T) {
	a := FromSlice(1, 3, []float64{-1, 0, 2})
	got := a.Apply(math.Abs)
	want := FromSlice(1, 3, []float64{1, 0, 2})
	if !got.Equal(want, 0) {
		t.Fatalf("Apply = %v", got)
	}
	if a.Data[0] != -1 {
		t.Fatal("Apply must not mutate input")
	}
}

func TestCSRMulDense(t *testing.T) {
	// adjacency of 0->1, 0->2, 2->1
	s := NewCSR(3, 3, []int{0, 0, 2}, []int{1, 2, 1})
	d := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	got := s.MulDense(d)
	want := FromSlice(3, 2, []float64{3 + 5, 4 + 6, 0, 0, 3, 4})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("CSR.MulDense = %v, want %v", got, want)
	}
}

// TestCSRTMatchesExplicitTranspose: NewCSR links a pattern to its
// transpose both ways, and the transpose's dense form is the dense
// transpose, duplicates included, for square and non-square patterns.
func TestCSRTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ rows, cols int }{{8, 8}, {5, 9}, {9, 5}} {
		var ri, ci []int
		for i := 0; i < 20; i++ {
			ri = append(ri, rng.Intn(shape.rows))
			ci = append(ci, rng.Intn(shape.cols))
		}
		s := NewCSR(shape.rows, shape.cols, ri, ci)
		if s.T == nil || s.T.T != s {
			t.Fatalf("%dx%d: NewCSR did not link the pair", shape.rows, shape.cols)
		}
		if s.T.NNZ() != s.NNZ() || !s.T.Dense().Equal(s.Dense().Transpose(), 0) {
			t.Fatalf("%dx%d: T is not the transpose", shape.rows, shape.cols)
		}
		d := Randn(shape.rows, 3, 1, rng)
		if !s.T.MulDense(d).Equal(MatMul(s.Dense().Transpose(), d), 1e-9) {
			t.Fatalf("%dx%d: T.MulDense disagrees with the dense transpose", shape.rows, shape.cols)
		}
	}
}

func TestCSRDenseRoundTrip(t *testing.T) {
	s := NewCSR(2, 3, []int{0, 1, 1}, []int{2, 0, 0})
	d := s.Dense()
	want := FromSlice(2, 3, []float64{0, 0, 1, 2, 0, 0})
	if !d.Equal(want, 0) {
		t.Fatalf("Dense = %v", d)
	}
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
}

func TestCSRSpMMEquivalentToDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		var ri, ci []int
		for i := 0; i < n*2; i++ {
			ri = append(ri, rng.Intn(n))
			ci = append(ci, rng.Intn(n))
		}
		s := NewCSR(n, n, ri, ci)
		d := Randn(n, 3, 1, rng)
		return s.MulDense(d).Equal(MatMul(s.Dense(), d), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []int{5}, []int{0})
}

func TestRandnDeterministic(t *testing.T) {
	a := Randn(2, 2, 1, rand.New(rand.NewSource(3)))
	b := Randn(2, 2, 1, rand.New(rand.NewSource(3)))
	if !a.Equal(b, 0) {
		t.Fatal("Randn with same seed must be deterministic")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Shapes above the parallel threshold must produce results identical
	// to an explicitly serial computation.
	rng := rand.New(rand.NewSource(50))
	a := Randn(300, 80, 1, rng)
	b := Randn(80, 64, 1, rng)
	got := MatMul(a, b)
	want := New(a.Rows, b.Cols)
	backendImpl.GemmNN(want, a, b)
	if !got.Equal(want, 0) {
		t.Fatal("parallel MatMul diverges from serial path")
	}
}
