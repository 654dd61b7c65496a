package tensor

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// Differential suite: every backend compiled into this binary must be
// bit-identical (math.Float64bits) to the pure-Go reference on every
// kernel, for every shape — including ragged shapes that exercise the
// SIMD strips and tails (n%16, n%8, n%4 remainders), odd row counts (the
// avx2 GEMM kernel's lone last row), k spans crossing the matMulKBlock
// panel boundary, the zero skip's edge cases, aliased slices, and
// non-finite inputs through the branchless blend kernels.

// diffBackends returns the compiled backends to hold against the
// reference, excluding purego itself.
func diffBackends() []Backend {
	var bs []Backend
	for _, b := range compiledBackends {
		if b.Name() == "purego" {
			continue
		}
		bs = append(bs, b)
	}
	return bs
}

// fillMixed fills x with a hostile finite mix: random magnitudes across
// many exponents, exact zeros (multipliers the GemmNN/GemmTN contract
// skips; TestBackendDifferentialGemmZeroSkip adds −0, NaN and ±Inf), and
// sign changes. Deterministic per (seed, len).
func fillMixed(x []float64, rng *rand.Rand) {
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0 // a skipped multiplier
		case 1:
			x[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(60)-30)
		default:
			x[i] = rng.NormFloat64()
		}
	}
}

func cloneSlice(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// gemmVariant adapts the three transpose forms to one (m, k, n) shape
// triple so the differential loop can treat them uniformly.
type gemmVariant struct {
	name string
	// dims returns (aRows, aCols, bRows, bCols) for contraction shape
	// m×k×n under this variant's transposition.
	dims func(m, k, n int) (int, int, int, int)
	call func(bk Backend, out, a, b *Matrix)
}

var gemmVariants = []gemmVariant{
	{"NN", func(m, k, n int) (int, int, int, int) { return m, k, k, n }, func(bk Backend, o, a, b *Matrix) { bk.GemmNN(o, a, b) }},
	{"TN", func(m, k, n int) (int, int, int, int) { return k, m, k, n }, func(bk Backend, o, a, b *Matrix) { bk.GemmTN(o, a, b) }},
	{"NT", func(m, k, n int) (int, int, int, int) { return m, k, n, k }, func(bk Backend, o, a, b *Matrix) { bk.GemmNT(o, a, b) }},
}

// TestBackendDifferentialGEMM accumulates products into a pre-filled out
// on each candidate backend and on the reference. Pre-filled out matters:
// the kernels' contract is out += …, and a kernel that writes instead of
// accumulating, or touches elements with no nonzero contribution, only
// fails this way. At k = 0 out starts at −0: GemmNN and GemmTN leave it,
// while GemmNT adds each element's empty sum, +0, and so turns it into +0.
func TestBackendDifferentialGEMM(t *testing.T) {
	ref := pureBackend{}
	negZero := math.Copysign(0, -1)
	// Shape grid: every n remainder class mod 16/8/4 (the SIMD strips and
	// tails), odd and even m, k = 0, and k crossing the matMulKBlock=128
	// panel boundary.
	ms := []int{1, 2, 3, 5, 8, 17}
	ks := []int{0, 1, 2, 3, 4, 7, 8, 31, 32, 127, 128, 129, 130}
	ns := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65}
	var shapes [][3]int
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	// The Eq. 11 decode's second layer (internal/core/decode.go): W₂ᵀ
	// (K×d_h, or the one row of the drawn component) times a node's
	// transposed hidden block (d_h×C), the candidate count C on the vector
	// axis — wider than anything in the grid above.
	for _, c := range []int{1, 7, 93, 128, 1890} {
		shapes = append(shapes, [3]int{2, 16, c}, [3]int{1, 16, c})
	}
	// The Eq. 11 training loss's second layer (core.mixBernoulliProb): the
	// same W₂ᵀ·hidᵀ with all E pairs of a timestep on the vector axis, and
	// its two backward products — into the hidden block, a two-deep
	// contraction E columns wide, and into W₂, the contraction over E, which
	// walks many matMulKBlock panels where the grid above stops at two.
	for _, e := range []int{1, 7, 590, 6150} {
		shapes = append(shapes, [3]int{2, 16, e}, [3]int{16, 2, e}, [3]int{2, e, 16})
	}
	for _, bk := range diffBackends() {
		bk := bk
		t.Run(bk.Name(), func(t *testing.T) {
			for _, v := range gemmVariants {
				rng := rand.New(rand.NewSource(42))
				for _, sh := range shapes {
					m, k, n := sh[0], sh[1], sh[2]
					ar, ac, br, bc := v.dims(m, k, n)
					a, b := New(ar, ac), New(br, bc)
					fillMixed(a.Data, rng)
					fillMixed(b.Data, rng)
					want, got := New(m, n), New(m, n)
					fillMixed(want.Data, rng) // accumulate into non-zero out
					if k == 0 {
						for i := range want.Data {
							want.Data[i] = negZero
						}
					}
					copy(got.Data, want.Data)
					v.call(ref, want, a, b)
					v.call(bk, got, a, b)
					if i, ok := sameBits(want.Data, got.Data); !ok {
						t.Fatalf("Gemm%s %dx%dx%d: out[%d] = %x, reference %x",
							v.name, m, k, n, i,
							math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
					}
				}
			}
		})
	}
}

// TestBackendDifferentialGemmZeroSkip holds GemmNN and GemmTN to the
// reference where the zero skip decides the bits. Out starts at −0, and
// the rows of a rotate through three kinds: finite multipliers a third of
// them ±0, all ±0, and the first kind with one NaN. Every fourth
// contraction index is ±0 in every row and sits over a row of b holding
// ±Inf and NaN. A kernel that multiplies a ±0 instead of skipping it
// turns those into NaN (0·Inf); one that treats −0 as nonzero turns an
// all-zero row's −0 into +0 (−0 + +0); one that skips NaN leaves a NaN row
// finite. Widths cover every strip of the avx2 kernel, and odd m leaves
// it a last row alone. NaN matches NaN, under the contract's carve-out.
func TestBackendDifferentialGemmZeroSkip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	signedZero := func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return negZero
		}
		return 0
	}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, bk := range diffBackends() {
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			for _, v := range gemmVariants[:2] {
				for _, m := range []int{1, 2, 3, 5, 6} {
					for _, k := range []int{1, 4, 9, 130} {
						for _, n := range []int{2, 8, 16, 17, 32, 40} {
							ar, ac, br, bc := v.dims(m, k, n)
							a, b := New(ar, ac), New(br, bc)
							// x_i[p] is a[i][p] under NN and a[p][i] under TN.
							x := func(i, p int) *float64 {
								if v.name == "TN" {
									return &a.Data[p*m+i]
								}
								return &a.Data[i*k+p]
							}
							for p := 0; p < k; p++ {
								for j := 0; j < n; j++ {
									b.Data[p*n+j] = rng.NormFloat64()
									if p%4 == 3 && rng.Intn(2) == 0 {
										b.Data[p*n+j] = nonFinite[rng.Intn(len(nonFinite))]
									}
								}
								for i := 0; i < m; i++ {
									*x(i, p) = rng.NormFloat64()
									if p%4 == 3 || i%3 == 1 || rng.Intn(3) == 0 {
										*x(i, p) = signedZero(rng)
									}
								}
							}
							for i := 2; i < m; i += 3 {
								*x(i, rng.Intn(k)) = math.NaN()
							}
							want, got := New(m, n), New(m, n)
							for i := range want.Data {
								want.Data[i], got.Data[i] = negZero, negZero
							}
							v.call(pureBackend{}, want, a, b)
							v.call(bk, got, a, b)
							for i := range want.Data {
								w, g := want.Data[i], got.Data[i]
								if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
									t.Fatalf("Gemm%s %dx%dx%d: out[%d][%d] = %v (%#x), reference %v (%#x)",
										v.name, m, k, n, i/n, i%n, g, math.Float64bits(g), w, math.Float64bits(w))
								}
							}
						}
					}
				}
			}
		})
	}
}

func TestBackendDifferentialVectorOps(t *testing.T) {
	ref := pureBackend{}
	lens := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 127, 128, 129}
	alphas := []float64{0, 1, -1, 0.37, -2.5e10, 1e-300}
	for _, bk := range diffBackends() {
		bk := bk
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for _, n := range lens {
				src := make([]float64, n)
				base := make([]float64, n)
				fillMixed(src, rng)
				fillMixed(base, rng)
				for _, alpha := range alphas {
					want, got := cloneSlice(base), cloneSlice(base)
					ref.AxpyRow(want, src, alpha)
					bk.AxpyRow(got, src, alpha)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("AxpyRow n=%d alpha=%v: [%d] %v != %v", n, alpha, i, got[i], want[i])
					}
					// Aliased dst == src: dst[i] += alpha*dst[i]. The kernels
					// load src before storing dst per element, so aliasing is
					// legal and must stay bit-identical too.
					want, got = cloneSlice(base), cloneSlice(base)
					ref.AxpyRow(want, want, alpha)
					bk.AxpyRow(got, got, alpha)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("AxpyRow aliased n=%d alpha=%v: [%d] %v != %v", n, alpha, i, got[i], want[i])
					}
					want, got = cloneSlice(base), cloneSlice(base)
					ref.Scale(want, alpha)
					bk.Scale(got, alpha)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("Scale n=%d s=%v: [%d] %v != %v", n, alpha, i, got[i], want[i])
					}
				}
				want, got := cloneSlice(base), cloneSlice(base)
				ref.Add(want, src)
				bk.Add(got, src)
				if i, ok := sameBits(want, got); !ok {
					t.Fatalf("Add n=%d: [%d] %v != %v", n, i, got[i], want[i])
				}
				want, got = cloneSlice(base), cloneSlice(base)
				ref.Add(want, want)
				bk.Add(got, got)
				if i, ok := sameBits(want, got); !ok {
					t.Fatalf("Add aliased n=%d: [%d] %v != %v", n, i, got[i], want[i])
				}
			}
			// AddRowVec at every width up to 33: whole four-column strips,
			// every tail length, and rows narrower than one strip. A
			// quarter of both operands is NaN, ±Inf or ±0; the one NaN
			// payload makes NaN + NaN the same bits in either order.
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
			for cols := 1; cols <= 33; cols++ {
				for _, rows := range []int{0, 1, 3, 94} {
					x, b := make([]float64, rows*cols), make([]float64, cols)
					for _, v := range [][]float64{x, b} {
						fillMixed(v, rng)
						for i := range v {
							if rng.Intn(4) == 0 {
								v[i] = specials[rng.Intn(len(specials))]
							}
						}
					}
					want, got := cloneSlice(x), cloneSlice(x)
					ref.AddRowVec(want, cols, b)
					bk.AddRowVec(got, cols, b)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("AddRowVec %dx%d: [%d] %v + %v = %#x, want %#x", rows, cols, i, x[i], b[i%cols],
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// specialValues stresses the branchless compare+blend activation kernels:
// NaN must propagate exactly as the scalar branches decide, signed zeros
// and denormals must round identically, and the vector/tail boundary must
// not change any element.
func specialValues(rng *rand.Rand, n int) []float64 {
	pool := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1, -1, 0.2, -0.2, 1e308, -1e308,
	}
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(2) == 0 {
			x[i] = pool[rng.Intn(len(pool))]
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

func TestBackendDifferentialActivations(t *testing.T) {
	ref := pureBackend{}
	lens := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 65}
	for _, bk := range diffBackends() {
		bk := bk
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range lens {
				base := specialValues(rng, n)
				for _, slope := range []float64{LeakySlope, 0.01, -1.5} {
					want, got := cloneSlice(base), cloneSlice(base)
					ref.VLeakyReLU(want, slope)
					bk.VLeakyReLU(got, slope)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("VLeakyReLU n=%d slope=%v: [%d] in=%v got=%x want=%x", n, slope, i, base[i],
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				for _, k := range expKernels {
					want, got := cloneSlice(base), cloneSlice(base)
					k.run(ref, want)
					k.run(bk, got)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("%s n=%d: [%d] in=%v got=%x want=%x", k.name, n, i, base[i],
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				grad := specialValues(rng, n)
				out := specialValues(rng, n)
				for _, a := range fusableActs {
					want, got := make([]float64, n), make([]float64, n)
					ref.VActGrad(want, grad, out, a.act)
					bk.VActGrad(got, grad, out, a.act)
					if i, ok := sameBits(want, got); !ok {
						t.Fatalf("VActGrad %s n=%d: [%d] grad=%v out=%v got=%x want=%x", a.name, n, i,
							grad[i], out[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

type vmathKernel struct {
	name  string
	run   func(Backend, []float64)
	def   func(float64) float64
	sweep float64
}

// expKernels are the three kernels defined by math.Exp and math.Tanh,
// with their scalar definitions, which every backend must match bit for
// bit, and the half-width of the range TestBackendDifferentialExpSweep
// sweeps for each: the one the avx2 exp kernel serves, and for tanh a
// little past 0.5·MAXLOG, above which every lane is ±1.
var expKernels = []vmathKernel{
	{"VExp", Backend.VExp, math.Exp, 708},
	{"VSigmoid", Backend.VSigmoid, sigmoid, 708},
	{"VTanh", Backend.VTanh, math.Tanh, 45},
}

// TestBackendDifferentialExpSweep holds every backend's VExp to math.Exp,
// its VSigmoid to the scalar sigmoid and its VTanh to math.Tanh, bit for
// bit, on 2²² evenly spaced points over each kernel's sweep range, 10⁶
// random bit patterns (for exp and sigmoid about one 4-lane block in
// sixteen lies wholly in the kernel's range; the rest take the scalar
// fallback), and edges at each of the four lane positions of a middle
// block: the exp range's bounds, the overflow and underflow thresholds,
// both neighbours of tanh's ±0.625 and ±0.5·MAXLOG branch points, ±0,
// subnormals, ±Inf and NaN.
func TestBackendDifferentialExpSweep(t *testing.T) {
	check := func(t *testing.T, bk Backend, x []float64, kernels []vmathKernel) {
		t.Helper()
		got := make([]float64, len(x))
		for _, k := range kernels {
			copy(got, x)
			k.run(bk, got)
			for i, v := range x {
				if w := k.def(v); math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("%s(%v) [%#x at lane %d] = %#x, want %#x", k.name, v, math.Float64bits(v), i%4,
						math.Float64bits(got[i]), math.Float64bits(w))
				}
			}
		}
	}
	const sweep, chunk, patterns = 1 << 22, 1 << 16, 1_000_000
	const halfMaxLog = 44.014845965556525 // math.tanh's 0.5·MAXLOG
	edges := []float64{708, -708, 709.78, 709.79, -745.13, -745.14, 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff)}
	for _, e := range []float64{0.625, halfMaxLog} {
		for _, v := range []float64{e, -e} {
			edges = append(edges, math.Nextafter(v, 0), v, math.Nextafter(v, 2*v))
		}
	}
	for _, bk := range compiledBackends {
		t.Run(bk.Name(), func(t *testing.T) {
			x := make([]float64, chunk)
			for ki, k := range expKernels {
				for c := 0; c < sweep; c += chunk {
					for i := range x {
						x[i] = -k.sweep + 2*k.sweep*float64(c+i)/(sweep-1)
					}
					check(t, bk, x, expKernels[ki:ki+1])
				}
			}
			rng := rand.New(rand.NewSource(27))
			for c := 0; c < patterns; c += chunk {
				x := x[:min(chunk, patterns-c)]
				for i := range x {
					x[i] = math.Float64frombits(rng.Uint64())
				}
				check(t, bk, x, expKernels)
			}
			for _, e := range edges {
				for lane := 0; lane < 4; lane++ {
					// A kernel block either side of the edge's, and a tail.
					x := []float64{0.5, -1, 2, -3, 0.25, -0.75, 1.5, -2.5, 3.5, -4.5, 6, -7, 0.125}
					x[4+lane] = e
					check(t, bk, x, expKernels)
				}
			}
		})
	}
}

// pairLogitsArgs is one PairLogits call; run hands it to a backend with a
// fresh output buffer pre-filled with a sentinel.
type pairLogitsArgs struct {
	stride, kq, dh, ld, c int
	w2, pi, b1, p         []float64
	idx                   []int
	slope                 float64
	outLen                int
}

func (a *pairLogitsArgs) run(bk Backend) []float64 {
	out := make([]float64, a.outLen)
	for i := range out {
		out[i] = -7.25
	}
	bk.PairLogits(out, a.stride, a.w2, a.kq, a.dh, a.pi, a.b1, a.p, a.ld, a.idx, a.c, a.slope)
	return out
}

// pairLogitsThreePass is the form the decode used before the kernel
// existed: the transposed hidden block (subtract, add), one VLeakyReLU
// over it, then GemmNN — which skips zero multipliers — into a zeroed
// block.
func pairLogitsThreePass(a *pairLogitsArgs) []float64 {
	hid := New(a.dh, a.c)
	for k := 0; k < a.c; k++ {
		j := k
		if a.idx != nil {
			j = a.idx[k]
		}
		for r := 0; r < a.dh; r++ {
			hid.Data[r*a.c+k] = (a.pi[r] - a.p[j*a.ld+r]) + a.b1[r]
		}
	}
	pureBackend{}.VLeakyReLU(hid.Data, a.slope)
	logits := New(a.kq, a.c)
	pureBackend{}.GemmNN(logits, &Matrix{Rows: a.kq, Cols: a.dh, Data: a.w2[:a.kq*a.dh]}, hid)
	return logits.Data
}

// TestBackendDifferentialPairLogits holds every backend's fused Eq. 11
// pair kernel against the reference triple loop: candidate counts on both
// sides of every tile and tail boundary, consecutive rows and gathered
// ones (a permutation, and a list with repeats), one to three second-layer
// rows, a hidden width the assembly does not take (6), output rows wider
// than c whose slack must stay untouched, and inputs holding ±0,
// denormals and second-layer weights that are exactly 0. On those finite
// inputs the reference must also equal the three-pass form it replaced,
// zero skip and all. A second round feeds the suite's non-finite pool;
// there two NaNs of different payload can meet (∞−∞ against the pool's
// NaN), which is the contract's one carve-out, so NaN matches NaN.
func TestBackendDifferentialPairLogits(t *testing.T) {
	ref := pureBackend{}
	const rows = 131
	tiny := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3e-310}
	fill := func(x []float64, rng *rand.Rand, finite bool) {
		if !finite {
			copy(x, specialValues(rng, len(x)))
			return
		}
		fillMixed(x, rng)
		for i := range x {
			if rng.Intn(6) == 0 {
				x[i] = tiny[rng.Intn(len(tiny))]
			}
		}
	}
	same := func(finite bool, a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (!finite && math.IsNaN(a) && math.IsNaN(b))
	}
	for _, bk := range compiledBackends {
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			for _, finite := range []bool{true, false} {
				for _, dh := range []int{4, 6, 16} {
					for _, kq := range []int{1, 2, 3} {
						for _, c := range []int{0, 1, 2, 3, 4, 5, 7, 8, 93, 127, 128, 129} {
							for _, mode := range []string{"consecutive", "permutation", "repeats"} {
								a := &pairLogitsArgs{stride: c + 3, kq: kq, dh: dh, ld: 2*dh + 1, c: c, slope: 0.2}
								a.outLen = kq*a.stride + 2
								a.w2, a.pi, a.b1 = make([]float64, kq*dh), make([]float64, dh), make([]float64, dh)
								a.p = make([]float64, (rows-1)*a.ld+dh)
								for _, x := range [][]float64{a.w2, a.pi, a.b1, a.p} {
									fill(x, rng, finite)
								}
								a.w2[rng.Intn(len(a.w2))] = 0
								switch mode {
								case "permutation":
									a.idx = rng.Perm(rows)[:c]
								case "repeats":
									a.idx = make([]int, c)
									for k := range a.idx {
										a.idx[k] = rng.Intn(5) * (rows - 1) / 4
									}
								}
								want, got := a.run(ref), a.run(bk)
								for i := range want {
									if !same(finite, got[i], want[i]) {
										t.Fatalf("finite=%v dh=%d kq=%d c=%d %s: out[%d] = %x, reference %x",
											finite, dh, kq, c, mode, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
									}
								}
								for i, v := range want {
									if q, k := i/a.stride, i%a.stride; (q >= kq || k >= c) && v != -7.25 {
										t.Fatalf("dh=%d kq=%d c=%d %s: reference wrote out[%d] outside its %d×%d block", dh, kq, c, mode, i, kq, c)
									}
								}
								if !finite || bk != Backend(ref) {
									continue
								}
								old := pairLogitsThreePass(a)
								for q := 0; q < kq; q++ {
									for k := 0; k < c; k++ {
										if g, w := want[q*a.stride+k], old[q*c+k]; math.Float64bits(g) != math.Float64bits(w) {
											t.Fatalf("dh=%d kq=%d c=%d %s: [%d][%d] = %x, three-pass form %x", dh, kq, c, mode, q, k, math.Float64bits(g), math.Float64bits(w))
										}
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestPairLogitsRejectsBadArguments: the assembly kernel takes raw
// pointers, so each thing its wrapper checks gets a call that violates
// only that, on every backend, and must panic before writing anything.
func TestPairLogitsRejectsBadArguments(t *testing.T) {
	const dh, ld, rows, c, kq = 4, 8, 10, 5, 2
	good := func() *pairLogitsArgs {
		return &pairLogitsArgs{stride: c, kq: kq, dh: dh, ld: ld, c: c, slope: 0.2, outLen: kq * c,
			w2: make([]float64, kq*dh), pi: make([]float64, dh), b1: make([]float64, dh),
			p: make([]float64, (rows-1)*ld+dh), idx: []int{9, 0, 3, 3, 7}}
	}
	bad := map[string]func(a *pairLogitsArgs){
		"idx past the last row":   func(a *pairLogitsArgs) { a.idx[4] = rows },
		"negative idx":            func(a *pairLogitsArgs) { a.idx[0] = -1 },
		"idx shorter than c":      func(a *pairLogitsArgs) { a.idx = a.idx[:c-1] },
		"consecutive rows past p": func(a *pairLogitsArgs) { a.idx, a.p = nil, a.p[:(c-2)*ld+dh] },
		"last row cut short":      func(a *pairLogitsArgs) { a.p = a.p[:len(a.p)-1] },
		"out short by one":        func(a *pairLogitsArgs) { a.outLen-- },
		"stride below c":          func(a *pairLogitsArgs) { a.stride = c - 1 },
		"pi shorter than dh":      func(a *pairLogitsArgs) { a.pi = a.pi[:dh-1] },
		"b1 shorter than dh":      func(a *pairLogitsArgs) { a.b1 = a.b1[:dh-1] },
		"w2 short by one":         func(a *pairLogitsArgs) { a.w2 = a.w2[:kq*dh-1] },
		"negative c":              func(a *pairLogitsArgs) { a.c = -1 },
		"row stride below dh":     func(a *pairLogitsArgs) { a.ld = dh - 1 },
		"dh zero":                 func(a *pairLogitsArgs) { a.dh = 0 },
		"negative kq":             func(a *pairLogitsArgs) { a.kq = -1 },
	}
	for _, bk := range compiledBackends {
		if out := good().run(bk); len(out) != kq*c {
			t.Fatalf("%s: the unmodified call did not run", bk.Name())
		}
		for name, breakIt := range bad {
			t.Run(bk.Name()+"/"+name, func(t *testing.T) {
				a := good()
				breakIt(a)
				out := make([]float64, a.outLen)
				defer func() {
					if recover() == nil {
						t.Fatal("no panic")
					}
					for i, v := range out {
						if v != 0 {
							t.Fatalf("out[%d] = %v written before the panic", i, v)
						}
					}
				}()
				bk.PairLogits(out, a.stride, a.w2, a.kq, a.dh, a.pi, a.b1, a.p, a.ld, a.idx, a.c, a.slope)
			})
		}
	}
}

// TestGemmNTScratchPoisoned holds GemmNT to the reference when the arena
// hands the avx2 kernel's transpose scratch a recycled buffer full of NaN:
// before every call, the bucket that k×n floats come from gets one such
// buffer on top. A transpose that leaves any element of its k×n block
// unwritten lets a NaN into the sums. The shapes are the affine layers'
// backward products dX = dY·Wᵀ at N = 94 and 945, the Eq. 11 loss's
// E-wide one, and ragged ones with n%4 and k%4 both nonzero, which take
// both of the transpose's edge loops.
func TestGemmNTScratchPoisoned(t *testing.T) {
	var shapes [][3]int
	for _, m := range []int{94, 945} {
		for _, kn := range [][2]int{{16, 16}, {16, 32}, {16, 28}, {32, 24}, {8, 16}, {2, 16}} {
			shapes = append(shapes, [3]int{m, kn[0], kn[1]})
		}
	}
	for _, e := range []int{7, 590, 6150} {
		shapes = append(shapes, [3]int{2, e, 16})
	}
	shapes = append(shapes, [3]int{3, 2, 3}, [3]int{5, 7, 9}, [3]int{17, 13, 30})
	nt := gemmVariants[2]
	for _, bk := range diffBackends() {
		t.Run(bk.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				a, b := New(m, k), New(n, k)
				fillMixed(a.Data, rng)
				fillMixed(b.Data, rng)
				want, got := New(m, n), New(m, n)
				fillMixed(want.Data, rng)
				copy(got.Data, want.Data)
				nt.call(pureBackend{}, want, a, b)
				poison := Get(k, n)
				buf := poison.Data[:cap(poison.Data)]
				for i := range buf {
					buf[i] = math.NaN()
				}
				Put(poison)
				nt.call(bk, got, a, b)
				if i, ok := sameBits(want.Data, got.Data); !ok {
					t.Fatalf("GemmNT %dx%dx%d on poisoned scratch: out[%d] = %v, reference %v",
						m, k, n, i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestArenaAlignment pins the arena allocator's 64-byte guarantee: every
// pool-miss buffer comes from alignedAlloc, whose base lands on a cache
// line so the SIMD kernels' rows start aligned whenever strides are
// multiples of the vector width.
func TestArenaAlignment(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100, 1000, 4096, 65536} {
		for trial := 0; trial < 8; trial++ {
			s := alignedAlloc(n)
			if len(s) != n {
				t.Fatalf("alignedAlloc(%d): len %d", n, len(s))
			}
			if cap(s) != n {
				t.Fatalf("alignedAlloc(%d): cap %d escapes the bucket accounting", n, cap(s))
			}
			if addr := uintptr(unsafe.Pointer(&s[0])); addr&63 != 0 {
				t.Fatalf("alignedAlloc(%d): base %#x not 64-byte aligned", n, addr)
			}
		}
	}
}

// FuzzGemmDifferential drives random shapes, seeds, and transpose
// variants through the active backend against the reference. The seed
// corpus (testdata/fuzz) covers each variant at tail-heavy shapes.
func FuzzGemmDifferential(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(9), uint8(0), int64(1))
	f.Add(uint8(1), uint8(129), uint8(17), uint8(1), int64(2))
	f.Add(uint8(8), uint8(31), uint8(33), uint8(2), int64(3))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(1), int64(4))
	// Odd m, which leaves the avx2 GemmNN/GemmTN kernel and its GemmNT
	// twin a last row alone, at n = 16+r for every remainder r = n%16.
	for r := uint8(0); r < 16; r++ {
		for variant := uint8(0); variant < 3; variant++ {
			f.Add(2*r, 9+r, 15+r, variant, int64(5+r))
		}
	}
	bks := diffBackends()
	f.Fuzz(func(t *testing.T, m8, k8, n8, variant uint8, seed int64) {
		m := int(m8%32) + 1
		k := int(k8%160) + 1
		n := int(n8%96) + 1
		v := gemmVariants[int(variant)%len(gemmVariants)]
		rng := rand.New(rand.NewSource(seed))
		ar, ac, br, bc := v.dims(m, k, n)
		a, b := New(ar, ac), New(br, bc)
		fillMixed(a.Data, rng)
		fillMixed(b.Data, rng)
		base := New(m, n)
		fillMixed(base.Data, rng)
		want := New(m, n)
		copy(want.Data, base.Data)
		v.call(pureBackend{}, want, a, b)
		for _, bk := range bks {
			got := New(m, n)
			copy(got.Data, base.Data)
			v.call(bk, got, a, b)
			if i, ok := sameBits(want.Data, got.Data); !ok {
				t.Fatalf("%s Gemm%s %dx%dx%d seed=%d: out[%d] = %x, reference %x",
					bk.Name(), v.name, m, k, n, seed, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	})
}
