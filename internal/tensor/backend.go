package tensor

import (
	"fmt"
	"os"
)

// This file defines the pluggable compute backend: the set of hot kernels
// every dense and sparse operation in the package funnels through. The
// tape (training's and the eval tapes of generation) and its backward
// sweep call the same dispatch points (the Gemm kernels, axpyRow, the V* vector-math helpers),
// so swapping the backend swaps the inner loops of training and
// generation wholesale while the recording / release machinery above them
// is untouched — the tape's differential tests and fuzzer exercise
// whichever backend is active for free.
//
// Bit-stability contract: every backend must produce bit-identical
// results to the pure-Go reference for all inputs, non-finite ones
// included, with one carve-out: when a single multiply or add meets two
// NaNs of different bit patterns the hardware returns its first operand's,
// and operand order in the reference is the compiler's choice, so there
// the backends agree only on the result being NaN. The kernels are written
// so this is achievable with SIMD:
//
//   - Elementwise kernels (axpy, add, scale, LeakyReLU, the activation
//     gradients) round each element independently;
//     vectorising across elements cannot change any element's result as
//     long as no FMA contraction is introduced, so SIMD variants use
//     separate multiply and add instructions.
//   - VExp and VSigmoid are defined by math.Exp, and VTanh by math.Tanh,
//     which calls math.Exp above |x| = 0.625. A SIMD variant may run only
//     the instruction sequence those functions themselves run on this
//     CPU, lane by lane — math.Exp's FMAs included, since they are the
//     reference's own — and must hand every input outside that sequence's
//     branch-free range back to the scalar function.
//   - AddRowVec is elementwise: each element of x gets one add of its
//     column's bias.
//   - GEMM kernels fix one accumulation order per output element —
//     ascending p (the contraction index), with GemmNN/GemmTN adding each
//     product directly into the output element and GemmNT summing into a
//     fresh scalar that is added to the output once at the end.
//     SIMD variants vectorise across output elements (rows/columns), never
//     across the contraction, so each element sees the exact scalar
//     sequence of roundings.
//   - GemmNN/GemmTN skip zero multipliers (a zero a[i][p] contributes
//     nothing and one-hot feature matrices are common on that path): +0
//     and −0 are skipped, NaN is not. The skip is part of the kernel
//     contract and every backend applies it identically.
//   - PairLogits fixes, per output element, hidden unit r ascending: one
//     subtract, one add, the LeakyReLU select, one multiply, and one add
//     into a sum that starts at +0 — no zero skip, no FMA. SIMD variants
//     vectorise across the candidates (output elements), never across r.

// Backend implements the hot compute kernels. Implementations must be
// stateless and safe for concurrent use: the parallel GEMM/SpMM paths
// invoke kernels from multiple goroutines on disjoint output rows.
type Backend interface {
	// Name identifies the backend ("purego", "tuned", "avx2").
	Name() string

	// GemmNN accumulates out += a·b (a: m×k, b: k×n, out: m×n).
	GemmNN(out, a, b *Matrix)
	// GemmTN accumulates out += aᵀ·b (a: k×m, b: k×n, out: m×n).
	GemmTN(out, a, b *Matrix)
	// GemmNT accumulates out += a·bᵀ (a: m×k, b: n×k, out: m×n).
	GemmNT(out, a, b *Matrix)

	// AxpyRow computes dst[i] += alpha*src[i] over len(src) elements.
	// The dense GEMM row kernels are built on it.
	AxpyRow(dst, src []float64, alpha float64)
	// Add computes dst[i] += src[i] over len(src) elements. The CSR
	// MulDense row kernel is built on it.
	Add(dst, src []float64)
	// Scale computes x[i] *= s in place.
	Scale(x []float64, s float64)

	// VLeakyReLU computes x[i] = x[i] < 0 ? slope*x[i] : x[i] in place.
	VLeakyReLU(x []float64, slope float64)

	// VExp computes x[i] = math.Exp(x[i]), VSigmoid the logistic
	// function through it and VTanh x[i] = math.Tanh(x[i]), in place.
	VExp(x []float64)
	VSigmoid(x []float64)
	VTanh(x []float64)

	// AddRowVec computes x[r*cols+j] += b[j] for every row r of x, a
	// row-major matrix len(x)/cols rows by cols columns (the bias add of
	// every affine layer). len(x) is a multiple of cols, and b holds at
	// least cols values.
	AddRowVec(x []float64, cols int, b []float64)

	// VActGrad computes dst[i] = grad[i] * act'(out[i]) with the
	// derivative expressed through the activation output — the fused
	// AffineSum backward (preGrad) and PairMLP's. Every act's
	// derivative is rational in the output (1 or LeakySlope for
	// LeakyReLU, 1−y² for tanh, y(1−y) for sigmoid), so SIMD
	// implementations stay bit-identical: each element is the same
	// multiply chain.
	VActGrad(dst, grad, out []float64, act Act)

	// PairLogits scores c rows of the row-major matrix p (row j starts at
	// p[j*ld] and holds dh values) against the row pi through one hidden
	// layer, the Eq. 11 pair decode of internal/core. The rows are
	// j_k = idx[k], or k itself when idx is nil, and for q in [0, kq):
	//
	//	out[q*stride+k] = Σ_r w2[q*dh+r] · leaky((pi[r] − p[j_k*ld+r]) + b1[r])
	//
	// with leaky(x) = x<0 ? slope*x : x, in the order the contract above
	// fixes. It writes, not accumulates, and touches nothing else of out.
	// Arguments that would read or write out of range panic before
	// anything is written.
	PairLogits(out []float64, stride int, w2 []float64, kq, dh int, pi, b1, p []float64, ld int, idx []int, c int, slope float64)
}

// checkPairLogits panics unless every access PairLogits' contract names
// is in range. The assembly kernel takes raw pointers, so its wrapper
// cannot lean on bounds checks; the pure-Go kernels call it too, so a
// bad call fails the same way on every backend, before any write.
func checkPairLogits(out []float64, stride int, w2 []float64, kq, dh int, pi, b1, p []float64, ld int, idx []int, c int) {
	switch {
	case c < 0 || kq < 0 || dh <= 0:
		panic(fmt.Sprintf("tensor: PairLogits with c=%d kq=%d dh=%d", c, kq, dh))
	case ld < dh:
		panic(fmt.Sprintf("tensor: PairLogits row stride %d below dh=%d", ld, dh))
	case len(pi) < dh || len(b1) < dh:
		panic(fmt.Sprintf("tensor: PairLogits needs dh=%d values of pi and b1, got %d and %d", dh, len(pi), len(b1)))
	case len(w2) < kq*dh:
		panic(fmt.Sprintf("tensor: PairLogits needs %dx%d second-layer weights, got %d", kq, dh, len(w2)))
	case c == 0 || kq == 0:
		return
	case stride < c && kq > 1:
		panic(fmt.Sprintf("tensor: PairLogits output rows of stride %d overlap at c=%d", stride, c))
	case len(out) < (kq-1)*stride+c:
		panic(fmt.Sprintf("tensor: PairLogits needs %d output values (kq=%d stride=%d c=%d), got %d", (kq-1)*stride+c, kq, stride, c, len(out)))
	}
	rows := 0 // whole rows of dh values that p holds at stride ld
	if len(p) >= dh {
		rows = (len(p)-dh)/ld + 1
	}
	if idx == nil {
		if c > rows {
			panic(fmt.Sprintf("tensor: PairLogits over %d consecutive rows of a %d-row matrix", c, rows))
		}
		return
	}
	if len(idx) < c {
		panic(fmt.Sprintf("tensor: PairLogits needs %d row indices, got %d", c, len(idx)))
	}
	for k, j := range idx[:c] {
		if j < 0 || j >= rows {
			panic(fmt.Sprintf("tensor: PairLogits idx[%d] = %d outside the matrix's %d rows", k, j, rows))
		}
	}
}

// compiledBackends lists every backend compiled into this binary in
// preference order (later entries preferred by auto-selection). The
// build-tagged asm file appends to it during package variable
// initialisation when the CPU qualifies.
var compiledBackends = []Backend{pureBackend{}, tunedBackend{}}

// backendImpl is the active backend. It is chosen once before main (or
// the test binary) runs; SetBackend may replace it at startup or between
// benchmark phases, but must not race with in-flight kernels. The
// declaration default covers package variable initialisers that run
// kernels before init(); selection happens in init(), after every
// build-tagged registration var has appended to compiledBackends.
var backendImpl Backend = pureBackend{}

func init() { backendImpl = initBackend() }

// initBackend resolves the active backend: the VRDAG_BACKEND environment
// variable if set ("purego", "tuned", "avx2"), otherwise the most
// capable compiled-in backend for this CPU.
func initBackend() Backend {
	if name := os.Getenv("VRDAG_BACKEND"); name != "" {
		if b := backendByName(name); b != nil {
			return b
		}
		fmt.Fprintf(os.Stderr, "vrdag/tensor: VRDAG_BACKEND=%q not available in this build (have %v); using %q\n",
			name, BackendNames(), compiledBackends[len(compiledBackends)-1].Name())
	}
	return compiledBackends[len(compiledBackends)-1]
}

func backendByName(name string) Backend {
	for _, b := range compiledBackends {
		if b.Name() == name {
			return b
		}
	}
	return nil
}

// ActiveBackend returns the name of the backend serving all kernel calls.
func ActiveBackend() string { return backendImpl.Name() }

// BackendNames lists the backends compiled into this binary, least to
// most preferred.
func BackendNames() []string {
	names := make([]string, len(compiledBackends))
	for i, b := range compiledBackends {
		names[i] = b.Name()
	}
	return names
}

// SetBackend switches the active backend by name. It is a startup /
// benchmark-harness hook, not a concurrency feature: callers must
// guarantee no kernel is executing during the switch.
func SetBackend(name string) error {
	b := backendByName(name)
	if b == nil {
		return fmt.Errorf("tensor: backend %q not compiled in (have %v)", name, BackendNames())
	}
	backendImpl = b
	return nil
}

// CPUFeatures reports the SIMD-relevant CPU features detected at startup
// (empty on platforms without a probe or under the purego build tag).
func CPUFeatures() []string { return cpuFeatureNames }

// cpuFeatureNames is populated by the per-architecture probe's init.
var cpuFeatureNames []string

// ---- Exported vector math ----
//
// Code outside the tape (the decode loop and latent sampling in
// internal/core) applies activations over raw slices; routing them here
// keeps them on the same kernels as the tape ops.

// VSigmoid applies the logistic function elementwise in place.
func VSigmoid(x []float64) { backendImpl.VSigmoid(x) }

// VTanh applies math.Tanh elementwise in place.
func VTanh(x []float64) { backendImpl.VTanh(x) }

// VExp applies math.Exp elementwise in place. It clamps nothing: callers
// that need a bound (Tape.Exp's min(x, 40)) apply it first.
func VExp(x []float64) { backendImpl.VExp(x) }

// PairLogits runs the active backend's fused pair-scoring kernel; see
// Backend.PairLogits.
func PairLogits(out []float64, stride int, w2 []float64, kq, dh int, pi, b1, p []float64, ld int, idx []int, c int, slope float64) {
	backendImpl.PairLogits(out, stride, w2, kq, dh, pi, b1, p, ld, idx, c, slope)
}
