package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatrices(n int) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	return Randn(n, n, 1, rng), Randn(n, n, 1, rng)
}

func BenchmarkMatMul64(b *testing.B) {
	x, y := benchMatrices(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Returning the product keeps the steady state allocation-free:
		// the buffer recycles through the arena, the header through the
		// matrixHeaders pool.
		Put(MatMul(x, y))
	}
}

func BenchmarkMatMul256(b *testing.B) {
	x, y := benchMatrices(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Put(MatMul(x, y))
	}
}

// BenchmarkGemmNarrow reads GemmNN, GemmTN and GemmNT on the active
// backend at the narrow shapes (m×k×n) that carry the model's GEMM work,
// where n ≤ 32 holds all but about 1 % of it: the N=94 layers' NN
// products, the TN weight gradient over the N=945 rows of a TBPTT fit, the
// NT input gradients dX = dY·Wᵀ at N=94 and 945, and the Eq. 11 loss's
// E-wide NT product at E = 600 and 6400. The inputs are dense, as the
// model's are (under 2 % of its multipliers are zero), and out accumulates
// across iterations.
func BenchmarkGemmNarrow(b *testing.B) {
	for _, sh := range []struct {
		variant int // index into gemmVariants
		m, k, n int
	}{
		{0, 94, 16, 16}, {0, 94, 28, 16}, {0, 94, 32, 16},
		{0, 94, 24, 32}, {0, 94, 16, 8}, {1, 16, 945, 16},
		{2, 94, 16, 32}, {2, 94, 16, 16}, {2, 94, 8, 16}, {2, 945, 16, 32},
		{2, 2, 600, 16}, {2, 2, 6400, 16},
	} {
		v := gemmVariants[sh.variant]
		b.Run(fmt.Sprintf("%s_%dx%dx%d", v.name, sh.m, sh.k, sh.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			ar, ac, br, bc := v.dims(sh.m, sh.k, sh.n)
			x, y, out := Randn(ar, ac, 1, rng), Randn(br, bc, 1, rng), New(sh.m, sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.call(backendImpl, out, x, y)
			}
		})
	}
}

// BenchmarkArenaGetPut times one arena round trip at the shape of a
// decode-time N=94, 16-wide scratch matrix: serial, and from GOMAXPROCS
// goroutines sharing the bucket's lock. Run it at -cpu 1,2 to see the
// uncontended and the contended cost.
func BenchmarkArenaGetPut(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Put(Get(94, 16))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				Put(Get(94, 16))
			}
		})
	})
}

func benchCSR(n, nnz int) (*CSR, *Matrix) {
	rng := rand.New(rand.NewSource(2))
	var ri, ci []int
	for i := 0; i < nnz; i++ {
		ri = append(ri, rng.Intn(n))
		ci = append(ci, rng.Intn(n))
	}
	return NewCSR(n, n, ri, ci), Randn(n, 32, 1, rng)
}

func BenchmarkSpMM(b *testing.B) {
	s, d := benchCSR(1024, 1024*8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Put(s.MulDense(d))
	}
}

func BenchmarkTapeForwardBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	w1 := Randn(32, 64, 0.1, rng)
	w2 := Randn(64, 8, 0.1, rng)
	x := Randn(128, 32, 1, rng)
	y := Randn(128, 8, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		a := tp.Var(w1)
		c := tp.Var(w2)
		h := tp.Tanh(tp.MatMul(tp.Const(x), a))
		out := tp.MatMul(h, c)
		tp.Backward(tp.MSELoss(out, y))
	}
}

// BenchmarkTapeStepPooled is the steady-state training-step shape: one
// tape reused across iterations with Reset returning every buffer to the
// arena. Compare its allocs/op with BenchmarkTapeForwardBackwardMLP to
// see what the pool removes.
func BenchmarkTapeStepPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	w1 := Randn(32, 64, 0.1, rng)
	b1 := Randn(1, 64, 0.1, rng)
	w2 := Randn(64, 8, 0.1, rng)
	b2 := Randn(1, 8, 0.1, rng)
	x := Randn(128, 32, 1, rng)
	y := Randn(128, 8, 1, rng)
	tp := NewTape()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := tp.Affine(tp.Const(x), tp.Var(w1), tp.Var(b1), ActTanh)
		out := tp.Affine(h, tp.Var(w2), tp.Var(b2), ActIdent)
		tp.Backward(tp.MSELoss(out, y))
		tp.Reset()
	}
}

// benchTapeSched runs a GRU-like recurrent chain — the training loop's
// shape — on tp, reporting the tape's peak live bytes so the lifetime
// release savings land in BENCH_tensor.json alongside the op timings.
func benchTapeSched(b *testing.B, tp *Tape) {
	rng := rand.New(rand.NewSource(5))
	const n, din, dh, steps = 64, 32, 32, 12
	wx := Randn(din, dh, 0.1, rng)
	wh := Randn(dh, dh, 0.1, rng)
	bz := Randn(1, dh, 0.1, rng)
	x := Randn(n, din, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := tp.Const(New(n, dh))
		for s := 0; s < steps; s++ {
			z := tp.Affine2(tp.Const(x), tp.Var(wx), h, tp.Var(wh), tp.Var(bz), ActSigmoid)
			h = tp.Lerp(h, tp.Tanh(tp.MatMul(z, tp.Var(wh))), z)
		}
		loss := tp.MeanAll(tp.Mul(h, h))
		tp.Keep(loss)
		tp.Backward(loss)
		tp.Reset()
	}
	b.ReportMetric(float64(tp.PeakLiveBytes()), "peak-live-B")
}

// BenchmarkTapeBackwardPlain is the reference tape: nothing released
// before Reset.
func BenchmarkTapeBackwardPlain(b *testing.B) { benchTapeSched(b, NewReferenceTape()) }

// BenchmarkTapeBackwardSched runs the default tape's lifetime release.
func BenchmarkTapeBackwardSched(b *testing.B) { benchTapeSched(b, NewTape()) }

// BenchmarkGAT records Tape.GAT and sweeps it back on one warm tape:
// 8 192 edges into 512 nodes at d_h = 16, every input needing a gradient.
func BenchmarkGAT(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n, e, dh = 512, 8192, 16
	wh, asw, asb, adw, adb := Randn(n, dh, 1, rng), Randn(dh, 1, 1, rng), New(1, 1), Randn(dh, 1, 1, rng), New(1, 1)
	src, dst := make([]int, e), make([]int, e)
	for k := range src {
		src[k], dst[k] = rng.Intn(n), rng.Intn(n)
	}
	tp := NewTape()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := tp.GAT(tp.Var(wh), tp.Var(asw), tp.Var(asb), tp.Var(adw), tp.Var(adb), src, dst, n)
		tp.Backward(tp.SumAll(o))
		tp.Reset()
	}
}

// BenchmarkVExp, BenchmarkVSigmoid and BenchmarkVTanh read the
// exp-defined kernels in ns per value on purego and on the active
// backend, over 8 742 values — one N=94 exact decode's θ pass (94·93
// pairs). Every iteration copies the inputs back first, and the copy is
// in the reading.
func BenchmarkVExp(b *testing.B)     { benchExpKernel(b, Backend.VExp) }
func BenchmarkVSigmoid(b *testing.B) { benchExpKernel(b, Backend.VSigmoid) }
func BenchmarkVTanh(b *testing.B)    { benchExpKernel(b, Backend.VTanh) }

func benchExpKernel(b *testing.B, kernel func(Backend, []float64)) {
	const n = 94 * 93
	rng := rand.New(rand.NewSource(8))
	src, x := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = 4 * rng.NormFloat64()
	}
	for _, bk := range []Backend{pureBackend{}, backendImpl} {
		b.Run(bk.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				kernel(bk, x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}

// BenchmarkPairLogits reads the fused Eq. 11 pair kernel in ns per scored
// pair on every compiled backend, at the two shapes the gen_offline
// benchmark decodes: exact decoding at N=94 (93 consecutive rows, as the
// two runs either side of the node's own row) and a gathered 128-candidate
// list over N=1891 rows, each with the α head's two second-layer rows and
// the θ head's one. Rows are 32 wide, 16 per head, as the decode lays them
// out.
func BenchmarkPairLogits(b *testing.B) {
	const dh, ld, slope = 16, 32, 0.2
	for _, bk := range compiledBackends {
		for _, shape := range []struct {
			name   string
			n, c   int
			gather bool
		}{
			{name: "consecutive_N94_C93", n: 94, c: 93},
			{name: "gathered_N1891_C128", n: 1891, c: 128, gather: true},
		} {
			for _, kq := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/kq%d", bk.Name(), shape.name, kq), func(b *testing.B) {
					rng := rand.New(rand.NewSource(6))
					p := Randn(shape.n, ld, 1, rng)
					w2, b1 := Randn(kq, dh, 1, rng).Data, Randn(1, dh, 1, rng).Data
					out := make([]float64, kq*shape.c)
					var lists [][]int
					if shape.gather {
						lists = make([][]int, shape.n)
						for i := range lists {
							lists[i] = append([]int(nil), rng.Perm(shape.n)[:shape.c]...)
						}
					}
					b.ResetTimer()
					for it := 0; it < b.N; it++ {
						i := it % shape.n
						pi := p.Row(i)[:dh]
						if shape.gather {
							bk.PairLogits(out, shape.c, w2, kq, dh, pi, b1, p.Data, ld, lists[i], shape.c, slope)
							continue
						}
						bk.PairLogits(out, shape.c, w2, kq, dh, pi, b1, p.Data, ld, nil, i, slope)
						if i+1 < shape.n {
							bk.PairLogits(out[i:], shape.c, w2, kq, dh, pi, b1, p.Data[(i+1)*ld:], ld, nil, shape.c-i, slope)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.c), "ns/pair")
				})
			}
		}
	}
}
