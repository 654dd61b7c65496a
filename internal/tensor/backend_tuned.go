package tensor

// tunedBackend restructures the reference kernels for instruction-level
// parallelism while reproducing the reference accumulation order exactly,
// so its results are bit-identical to pureBackend on every input. It is
// pure Go — compiled everywhere, including under the purego tag — and is
// what auto-selection falls back to when no assembly backend qualifies.
//
// The two ideas:
//
//   - GemmNN/GemmTN compact each row's nonzero multipliers first, then
//     fuse four of them per pass over the output row (gemmRow4Go): one
//     load/store of out[i][j] now carries four multiply-adds, quartering
//     the memory traffic of the reference's one-axpy-per-p form. The adds
//     land in ascending-p order, one at a time — the exact reference
//     rounding sequence.
//   - GemmNT keeps four independent dot-product lanes in flight
//     (ntRowGo), hiding the FP add latency that serialises the
//     reference's single accumulator chain. Each lane is a separate
//     output element summed sequentially over ascending p, so per element
//     nothing changed.
//
// The avx2 backend compacts nothing: its GemmNN/GemmTN kernel skips zero
// multipliers inside its loop, and its GemmNT transposes b once per call
// and runs a kernel of the same shape on it.
type tunedBackend struct{ pureBackend }

func (tunedBackend) Name() string { return "tuned" }

func (tunedBackend) AxpyRow(dst, src []float64, a float64) { axpyRowTuned(dst, src, a) }

// The two compaction drivers below call gemmRow4Go directly, not through a
// kernel function value, on purpose: an indirect row-kernel call makes
// the stack-allocated compaction buffers escape to the heap, costing two
// allocations per GEMM call.

// GemmNN is the out += a·b driver: k-blocked like the reference, but each
// a-row's nonzero (p, a[i][p]) pairs are compacted once per block so the
// row kernel sees only live multipliers. Compaction is what lets fused
// and SIMD kernels honour the reference's zero skip without a branch in
// their inner loops.
func (tunedBackend) GemmNN(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if n == 0 {
		return
	}
	var ps [matMulKBlock]int32
	var avs [matMulKBlock]float64
	for k0 := 0; k0 < k; k0 += matMulKBlock {
		k1 := k0 + matMulKBlock
		if k1 > k {
			k1 = k
		}
		for i := 0; i < m; i++ {
			arow := a.Data[i*k+k0 : i*k+k1]
			nz := 0
			for pi, av := range arow {
				if av != 0 {
					ps[nz] = int32(k0 + pi)
					avs[nz] = av
					nz++
				}
			}
			if nz == 0 {
				continue
			}
			gemmRow4Go(out.Data[i*n:(i+1)*n], b.Data, avs[:nz], ps[:nz], n)
		}
	}
}

// GemmTN is the out += aᵀ·b driver. The reference iterates p outer / i
// inner; iterating i outer with per-row compaction visits the same
// nonzero multipliers in the same ascending-p order per output element,
// while reusing the row-fused kernel. The strided a-column reads cost one
// pass over a per k-block, negligible next to the n-wide row work.
func (tunedBackend) GemmTN(out, a, b *Matrix) {
	m, k, n := a.Cols, a.Rows, b.Cols
	if n == 0 || m == 0 {
		return
	}
	var ps [matMulKBlock]int32
	var avs [matMulKBlock]float64
	for k0 := 0; k0 < k; k0 += matMulKBlock {
		k1 := k0 + matMulKBlock
		if k1 > k {
			k1 = k
		}
		for i := 0; i < m; i++ {
			nz := 0
			for p := k0; p < k1; p++ {
				if av := a.Data[p*m+i]; av != 0 {
					ps[nz] = int32(p)
					avs[nz] = av
					nz++
				}
			}
			if nz == 0 {
				continue
			}
			gemmRow4Go(out.Data[i*n:(i+1)*n], b.Data, avs[:nz], ps[:nz], n)
		}
	}
}

// GemmNT is the out += a·bᵀ driver: one ntRowGo call per output row.
func (tunedBackend) GemmNT(out, a, b *Matrix) {
	m, k, n := a.Rows, a.Cols, b.Rows
	if n == 0 {
		return
	}
	for i := 0; i < m; i++ {
		ntRowGo(out.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n, k)
	}
}

// PairLogits keeps two second-layer rows' sums in registers per pass over
// a candidate's hidden units, and selects the LeakyReLU multiplier from a
// two-entry table instead of branching on the sign — random signs cost the
// reference loop a misprediction every other hidden unit. h·1 is h bit for
// bit (h comes out of an add, so even a NaN is already quiet), so the
// table changes no result.
func (tunedBackend) PairLogits(out []float64, stride int, w2 []float64, kq, dh int, pi, b1, p []float64, ld int, idx []int, c int, slope float64) {
	checkPairLogits(out, stride, w2, kq, dh, pi, b1, p, ld, idx, c)
	pi, b1 = pi[:dh], b1[:dh]
	mul := [2]float64{1, slope}
	for q := 0; q < kq; q += 2 {
		two := q+1 < kq
		wa := w2[q*dh:][:dh]
		wb := wa
		if two {
			wb = w2[(q+1)*dh:][:dh]
		}
		for k := 0; k < c; k++ {
			j := k
			if idx != nil {
				j = idx[k]
			}
			var sa, sb float64
			for r, pj := range p[j*ld:][:dh] {
				h := (pi[r] - pj) + b1[r]
				neg := 0
				if h < 0 {
					neg = 1
				}
				h *= mul[neg]
				sa += wa[r] * h
				sb += wb[r] * h
			}
			out[q*stride+k] = sa
			if two {
				out[(q+1)*stride+k] = sb
			}
		}
	}
}

// gemmRow4Go fuses four compacted multipliers per pass over the output
// row; the adds into v stay one-at-a-time in ascending-q (= ascending-p)
// order, so each element's rounding sequence matches the reference.
func gemmRow4Go(orow, bdata []float64, avs []float64, ps []int32, n int) {
	q := 0
	for ; q+3 < len(avs); q += 4 {
		a0, a1, a2, a3 := avs[q], avs[q+1], avs[q+2], avs[q+3]
		b0 := bdata[int(ps[q])*n:][:n:n]
		b1 := bdata[int(ps[q+1])*n:][:n:n]
		b2 := bdata[int(ps[q+2])*n:][:n:n]
		b3 := bdata[int(ps[q+3])*n:][:n:n]
		o := orow[:n]
		for j := range o {
			v := o[j]
			v += a0 * b0[j]
			v += a1 * b1[j]
			v += a2 * b2[j]
			v += a3 * b3[j]
			o[j] = v
		}
	}
	for ; q < len(avs); q++ {
		axpyRowTuned(orow, bdata[int(ps[q])*n:][:n], avs[q])
	}
}

// ntRowGo keeps four dot-product lanes in flight per pass over the a-row.
// Each lane is one output element's sum, accumulated sequentially over
// ascending p exactly like the reference's scalar chain.
func ntRowGo(orow, arow, bdata []float64, n, k int) {
	arow = arow[:k]
	j := 0
	for ; j+3 < n; j += 4 {
		b0 := bdata[j*k:][:k:k]
		b1 := bdata[(j+1)*k:][:k:k]
		b2 := bdata[(j+2)*k:][:k:k]
		b3 := bdata[(j+3)*k:][:k:k]
		var s0, s1, s2, s3 float64
		for p, ap := range arow {
			s0 += ap * b0[p]
			s1 += ap * b1[p]
			s2 += ap * b2[p]
			s3 += ap * b3[p]
		}
		orow[j] += s0
		orow[j+1] += s1
		orow[j+2] += s2
		orow[j+3] += s3
	}
	for ; j < n; j++ {
		brow := bdata[j*k : (j+1)*k]
		s := 0.0
		for p := 0; p < k; p++ {
			s += arow[p] * brow[p]
		}
		orow[j] += s
	}
}

// axpyRowTuned computes dst += a*src with an 8-way unroll. Elementwise,
// so any unroll factor is bit-identical to the reference.
func axpyRowTuned(dst, src []float64, a float64) {
	n := len(src)
	dst = dst[:n]
	j := 0
	for ; j+7 < n; j += 8 {
		dst[j] += a * src[j]
		dst[j+1] += a * src[j+1]
		dst[j+2] += a * src[j+2]
		dst[j+3] += a * src[j+3]
		dst[j+4] += a * src[j+4]
		dst[j+5] += a * src[j+5]
		dst[j+6] += a * src[j+6]
		dst[j+7] += a * src[j+7]
	}
	for ; j < n; j++ {
		dst[j] += a * src[j]
	}
}
