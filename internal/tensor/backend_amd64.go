//go:build amd64 && !purego

package tensor

import "math"

// Assembly kernel entry points (backend_amd64.s). All are leaf routines
// over raw pointers; the //go:noescape pragma keeps the slices they
// receive on the caller's stack.

//go:noescape
func axpyAVX2(dst, src *float64, n int, a float64)

//go:noescape
func addAVX2(dst, src *float64, n int)

//go:noescape
func scaleAVX2(x *float64, n int, s float64)

//go:noescape
func vleakyAVX2(x *float64, n4 int, slope float64)

//go:noescape
func actGradLRAVX2(dst, grad, out *float64, n4 int, slope float64)

//go:noescape
func actGradTanhAVX2(dst, grad, out *float64, n4 int)

//go:noescape
func actGradSigmoidAVX2(dst, grad, out *float64, n4 int)

//go:noescape
func gemmRowsAVX2(out, a, b *float64, m, k, n, rowStride, pStride int)

//go:noescape
func gemmNTRowsAVX2(out, a, bt *float64, m, k, n int)

//go:noescape
func transposeAVX2(dst, src *float64, rows4, cols4, rows, cols int)

//go:noescape
func pairLogitsAVX2(out *float64, stride int, w2 *float64, kq, dh int, pi, b1, p *float64, ld int, idx *int, c int, slope float64)

//go:noescape
func vexpAVX2(x *float64, n4 int) (done int)

//go:noescape
func vsigmoidAVX2(x *float64, n4 int) (done int)

//go:noescape
func vtanhAVX2(x *float64, n4 int) (done int)

//go:noescape
func addRowVecAVX2(x, b *float64, rows, cols, c4 int)

// The CPU is probed during package variable initialisation, so the
// registration lands before backend selection in init().
var _ = registerAMD64Backend()

// expKernel is set when the avx2 backend's VExp, VSigmoid and VTanh run
// the assembly exp kernel; otherwise they keep the scalar loops. "fma" in
// CPUFeatures says which of the two a process runs.
var expKernel bool

func registerAMD64Backend() struct{} {
	avx2, fma := detectAMD64()
	if !avx2 {
		return struct{}{}
	}
	cpuFeatureNames = append(cpuFeatureNames, "avx2")
	compiledBackends = append(compiledBackends, avx2Backend{})
	if fma && expKernelMatchesMath() {
		expKernel = true
		cpuFeatureNames = append(cpuFeatureNames, "fma")
	}
	return struct{}{}
}

// expProbe holds inputs on which math.Exp's two amd64 paths give
// different last bits: the FMA sequence the kernel replays, and the
// separate multiply and add math.Exp runs when its own CPU probe says no
// FMA (GODEBUG=cpu.fma=off says so on any CPU).
var expProbe = [8]float64{0.375, -0.09375, 0.59375, -0.109375, 1.03125, -0.1875, 0.9684157578347397, -1.15625}

// expKernelMatchesMath reports whether the exp kernel reproduces math.Exp
// bit for bit on expProbe. The CPUID bit says only that the kernel can
// run; whether math.Exp takes the FMA path in this process decides
// whether it may.
func expKernelMatchesMath() bool {
	x := expProbe
	if vexpAVX2(&x[0], len(x)) != len(x) {
		return false
	}
	for i, v := range expProbe {
		if math.Float64bits(x[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// avx2Backend runs the hand-written AVX2 kernels, bit-identical to the
// reference: 4-wide no-FMA mul+add pairs vectorised across output
// elements only, and the exp and tanh kernels replaying math.Exp's own
// FMA sequence and math.tanh's branches lane by lane (see
// backend_amd64.s). GemmNN and GemmTN are one
// kernel that keeps two output rows' sums in registers and skips zero
// multipliers itself; GemmNT transposes b once per call and runs a kernel
// of the same shape on it, without the skip.
type avx2Backend struct{ tunedBackend }

func (avx2Backend) Name() string { return "avx2" }

func (avx2Backend) AxpyRow(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	if n == 0 {
		return
	}
	axpyAVX2(&dst[0], &src[0], n, a)
}

func (avx2Backend) Add(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	if n == 0 {
		return
	}
	addAVX2(&dst[0], &src[0], n)
}

func (avx2Backend) Scale(x []float64, s float64) {
	if len(x) == 0 {
		return
	}
	scaleAVX2(&x[0], len(x), s)
}

func (avx2Backend) GemmNN(out, a, b *Matrix) { gemmRows(out, a, b, a.Rows, a.Cols, b.Cols, a.Cols, 1) }
func (avx2Backend) GemmTN(out, a, b *Matrix) { gemmRows(out, a, b, a.Cols, a.Rows, b.Cols, 1, a.Cols) }

// The branch-free activation kernels replace data-dependent branches
// (mispredicted on random signs) with compare+blend; the multiplies they
// select between are the scalar reference's, so they stay bit-identical.

func (avx2Backend) VLeakyReLU(x []float64, slope float64) {
	n4 := len(x) &^ 3
	if n4 > 0 {
		vleakyAVX2(&x[0], n4, slope)
	}
	for i := n4; i < len(x); i++ {
		if x[i] < 0 {
			x[i] = slope * x[i]
		}
	}
}

func (avx2Backend) VExp(x []float64)     { expBlocks(x, vexpAVX2, scalarKernels{}.VExp) }
func (avx2Backend) VSigmoid(x []float64) { expBlocks(x, vsigmoidAVX2, scalarKernels{}.VSigmoid) }
func (avx2Backend) VTanh(x []float64)    { expBlocks(x, vtanhAVX2, scalarKernels{}.VTanh) }

// expBlocks runs kernel over x's whole 4-lane blocks, or scalar over all
// of x where the init probe left the kernel off. The kernel returns at
// the first block it refuses: for exp and sigmoid one holding a NaN or a
// lane outside [−708, 708], where math.Exp leaves its branch-free path,
// for tanh one holding a NaN. scalar finishes that block, and the kernel
// resumes past it. scalar also takes the len(x)%4 tail.
func expBlocks(x []float64, kernel func(x *float64, n4 int) int, scalar func([]float64)) {
	if !expKernel {
		scalar(x)
		return
	}
	n4 := len(x) &^ 3
	for i := 0; i < n4; {
		if i += kernel(&x[i], n4-i); i < n4 {
			scalar(x[i : i+4])
			i += 4
		}
	}
	scalar(x[n4:])
}

// AddRowVec adds each row's first cols&^3 columns in one assembly call
// over the whole matrix, and the last cols%4 here; rows narrower than
// four columns stay scalar. The kernel takes raw pointers, so x and b are
// first cut to the whole rows and the cols values it reads.
func (avx2Backend) AddRowVec(x []float64, cols int, b []float64) {
	c4 := cols &^ 3
	if c4 == 0 || len(x) == 0 {
		scalarKernels{}.AddRowVec(x, cols, b)
		return
	}
	b, x = b[:cols], x[:len(x)/cols*cols]
	addRowVecAVX2(&x[0], &b[0], len(x)/cols, cols, c4)
	tail := b[c4:]
	for r := c4; r < len(x); r += cols {
		row := x[r : r+len(tail)]
		for j, v := range tail {
			row[j] += v
		}
	}
}

func (avx2Backend) VActGrad(dst, grad, out []float64, act Act) {
	n := len(grad)
	n4 := n &^ 3
	if n4 > 0 {
		switch act {
		case ActLeakyReLU:
			actGradLRAVX2(&dst[0], &grad[0], &out[0], n4, LeakySlope)
		case ActTanh:
			actGradTanhAVX2(&dst[0], &grad[0], &out[0], n4)
		case ActSigmoid:
			actGradSigmoidAVX2(&dst[0], &grad[0], &out[0], n4)
		default:
			scalarKernels{}.VActGrad(dst, grad, out, act)
			return
		}
	}
	for i := n4; i < n; i++ {
		dst[i] = grad[i] * actGradFromOutput(out[i], act)
	}
}

// PairLogits hands the assembly kernel two second-layer rows per call —
// what it keeps in registers — after checkPairLogits has vouched for every
// address it will form. The kernel transposes 4×4 tiles, so a dh that is
// not a multiple of 4 takes the portable loop.
func (b avx2Backend) PairLogits(out []float64, stride int, w2 []float64, kq, dh int, pi, b1, p []float64, ld int, idx []int, c int, slope float64) {
	if dh%4 != 0 {
		b.tunedBackend.PairLogits(out, stride, w2, kq, dh, pi, b1, p, ld, idx, c, slope)
		return
	}
	checkPairLogits(out, stride, w2, kq, dh, pi, b1, p, ld, idx, c)
	if c == 0 {
		return
	}
	var ix *int
	if idx != nil {
		ix = &idx[0]
	}
	for q := 0; q < kq; q += 2 {
		pairLogitsAVX2(&out[q*stride], stride, &w2[q*dh], min(2, kq-q), dh, &pi[0], &b1[0], &p[0], ld, ix, c, slope)
	}
}

// gemmRows runs GemmNN or GemmTN through the assembly kernel, whose row
// i's multipliers are a.Data[i*rowStride + p*pStride], one panel of
// matMulKBlock rows of b per call: a panel stays in cache while every row
// pair walks it, where a whole b taller than that (a TN weight gradient
// over thousands of nodes) would stream from memory once per pair. Each
// output element still takes its products in ascending p. The kernel takes
// raw pointers, so the three index expressions first check that each
// matrix holds the elements its shape names.
func gemmRows(out, a, b *Matrix, m, k, n, rowStride, pStride int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	_, _, _ = out.Data[m*n-1], a.Data[m*k-1], b.Data[k*n-1]
	for k0 := 0; k0 < k; k0 += matMulKBlock {
		gemmRowsAVX2(&out.Data[0], &a.Data[k0*pStride], &b.Data[k0*n], m, min(matMulKBlock, k-k0), n, rowStride, pStride)
	}
}

// GemmNT computes out += a·bᵀ. It transposes b (n×k) once into k×n arena
// scratch, so that the row kernel reads b as GemmNN reads it: one
// contiguous strip of a row per contraction step, shared by two output
// rows. Each output element is still one sum from +0 over ascending p,
// added to out once at the end. The scratch is not zeroed, because
// transposeInto writes every element of it; TestGemmNTScratchPoisoned
// hands it buffers full of NaN to hold that. With k = 0 every sum is the
// empty +0, which the reference still adds: a −0 in out becomes +0.
func (avx2Backend) GemmNT(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Rows
	if m == 0 || n == 0 {
		return
	}
	o := out.Data[:m*n]
	if k == 0 {
		for i := range o {
			o[i] += 0
		}
		return
	}
	_, _ = a.Data[m*k-1], b.Data[n*k-1]
	bt := getUnzeroed(k, n)
	transposeInto(bt.Data, b.Data, n, k)
	gemmNTRowsAVX2(&o[0], &a.Data[0], &bt.Data[0], m, k, n)
	Put(bt)
}

// transposeInto writes dst = srcᵀ, src rows×cols and dst cols×rows, every
// element of dst[:rows*cols]: the assembly takes the whole 4×4 tiles, and
// the two loops here the last rows%4 rows of src and then the last
// cols%4 columns above them.
func transposeInto(dst, src []float64, rows, cols int) {
	dst, src = dst[:rows*cols], src[:rows*cols]
	r4, c4 := rows&^3, cols&^3
	if r4 > 0 && c4 > 0 {
		transposeAVX2(&dst[0], &src[0], r4, c4, rows, cols)
	}
	for r := r4; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
	for c := c4; c < cols; c++ {
		for r := 0; r < r4; r++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
}
