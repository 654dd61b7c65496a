package tensor

import "math"

// scalarKernels supplies the elementwise vector-math methods shared by
// every backend that does not override them.
type scalarKernels struct{}

func (scalarKernels) VExp(x []float64) {
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}

func (scalarKernels) VSigmoid(x []float64) {
	for i, v := range x {
		x[i] = sigmoid(v)
	}
}

func (scalarKernels) VTanh(x []float64) {
	for i, v := range x {
		x[i] = math.Tanh(v)
	}
}

func (scalarKernels) AddRowVec(x []float64, cols int, b []float64) {
	for r := 0; r < len(x); r += cols {
		row := x[r : r+cols]
		for j, v := range b[:cols] {
			row[j] += v
		}
	}
}

func (scalarKernels) VLeakyReLU(x []float64, slope float64) {
	for i, v := range x {
		if v < 0 {
			x[i] = slope * v
		}
	}
}

func (scalarKernels) VActGrad(dst, grad, out []float64, act Act) {
	for i, g := range grad {
		dst[i] = g * actGradFromOutput(out[i], act)
	}
}

// pureBackend is the reference implementation: the original scalar Go
// kernels, kept exactly as they were so golden values and checkpoints
// predating the backend split stay valid. Every other backend is tested
// bit-for-bit against it, and under the purego build tag it is the most
// conservative choice (VRDAG_BACKEND=purego forces it anywhere).
type pureBackend struct{ scalarKernels }

func (pureBackend) Name() string { return "purego" }

func (pureBackend) AxpyRow(dst, src []float64, a float64) { axpyRowRef(dst, src, a) }

func (pureBackend) Add(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	for i, v := range src {
		dst[i] += v
	}
}

func (pureBackend) Scale(x []float64, s float64) {
	for i := range x {
		x[i] *= s
	}
}

// GemmNN computes out += a·b with the k-blocked broadcast-axpy kernel: a
// panel of matMulKBlock rows of b stays L2-resident while every output
// row streams past it. Per output element the accumulation order is
// ascending p restricted to nonzero a[i][p] — the kernel contract all
// backends reproduce.
func (pureBackend) GemmNN(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for k0 := 0; k0 < k; k0 += matMulKBlock {
		k1 := k0 + matMulKBlock
		if k1 > k {
			k1 = k
		}
		for i := 0; i < m; i++ {
			arow := a.Data[i*k+k0 : i*k+k1]
			orow := out.Data[i*n : (i+1)*n]
			for pi, av := range arow {
				if av == 0 {
					continue
				}
				p := k0 + pi
				axpyRowRef(orow, b.Data[p*n:(p+1)*n], av)
			}
		}
	}
}

// GemmTN computes out += aᵀ·b. The zero skip matters here: one-hot
// feature matrices arrive transposed on the backward path.
func (pureBackend) GemmTN(out, a, b *Matrix) {
	m, k, n := a.Cols, a.Rows, b.Cols
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			axpyRowRef(out.Data[i*n:(i+1)*n], brow, av)
		}
	}
}

// GemmNT computes out += a·bᵀ as row dot products: each output element is
// a fresh sum over ascending p added to out once at the end.
func (pureBackend) GemmNT(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Rows
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] += s
		}
	}
}

// PairLogits is the kernel's definition: the scalar triple loop, one
// candidate, one second-layer row, one hidden unit at a time.
func (pureBackend) PairLogits(out []float64, stride int, w2 []float64, kq, dh int, pi, b1, p []float64, ld int, idx []int, c int, slope float64) {
	checkPairLogits(out, stride, w2, kq, dh, pi, b1, p, ld, idx, c)
	for k := 0; k < c; k++ {
		j := k
		if idx != nil {
			j = idx[k]
		}
		row := p[j*ld:][:dh]
		for q := 0; q < kq; q++ {
			w := w2[q*dh:][:dh]
			s := 0.0
			for r, pj := range row {
				h := (pi[r] - pj) + b1[r]
				if h < 0 {
					h = slope * h
				}
				s += w[r] * h
			}
			out[q*stride+k] = s
		}
	}
}

// axpyRowRef computes dst += a*src over equal-length slices. The 4-way
// unroll amortises loop control; it preserves ascending-index
// accumulation order, so callers stay bit-identical to a plain loop.
func axpyRowRef(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	j := 0
	for ; j+3 < n; j += 4 {
		dst[j] += a * src[j]
		dst[j+1] += a * src[j+1]
		dst[j+2] += a * src[j+2]
		dst[j+3] += a * src[j+3]
	}
	for ; j < n; j++ {
		dst[j] += a * src[j]
	}
}
