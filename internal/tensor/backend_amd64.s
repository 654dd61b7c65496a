//go:build amd64 && !purego

#include "textflag.h"

// SIMD kernels for the avx2 compute backend. Bit-stability rules (see
// backend.go):
//
//   - No FMA of our own. Separate VMULPD + VADDPD keep each element's
//     rounding identical to the scalar reference. The exp kernel's FMAs
//     are the reference's: math.Exp runs the same fused operations.
//   - Vectorisation is across output elements only. Every lane of every
//     vector below is a distinct output element receiving its products in
//     ascending contraction order, so no element ever sees a reordered or
//     fused sum.
//   - Tails narrow 256→scalar with VEX scalar ops (VMULSD/VADDSD), which
//     round exactly like the Go compiler's SSE scalar code, or keep the
//     packed ops under a lane mask (VMASKMOVPD) that loads and stores only
//     the tail's elements.
//
// All functions are NOSPLIT leaf routines taking raw pointers (wrapped by
// //go:noescape declarations in backend_amd64.go) and end with VZEROUPPER
// to avoid AVX/SSE transition stalls in the Go code they return to.

// func axpyAVX2(dst, src *float64, n int, a float64)
// dst[i] += a*src[i] for i in [0, n).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0

axpy2_loop16:
	CMPQ CX, $16
	JLT  axpy2_loop4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy2_loop16

axpy2_loop4:
	CMPQ CX, $4
	JLT  axpy2_loop1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy2_loop4

axpy2_loop1:
	TESTQ CX, CX
	JEQ   axpy2_done
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy2_loop1

axpy2_done:
	VZEROUPPER
	RET

// func addAVX2(dst, src *float64, n int)
// dst[i] += src[i] for i in [0, n).
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add2_loop16:
	CMPQ CX, $16
	JLT  add2_loop4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     add2_loop16

add2_loop4:
	CMPQ CX, $4
	JLT  add2_loop1
	VMOVUPD (SI), Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     add2_loop4

add2_loop1:
	TESTQ CX, CX
	JEQ   add2_done
	VMOVSD (SI), X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    add2_loop1

add2_done:
	VZEROUPPER
	RET

// func addRowVecAVX2(x, b *float64, rows, cols, c4 int)
// x[r·cols+j] += b[j] for r in [0, rows) and j in [0, c4), where x is
// rows×cols row-major, rows is positive and c4 a positive multiple of 4 no
// larger than cols: one add per element, x's value first, as the scalar
// reference adds. The Go wrapper takes each row's last cols−c4 columns.
//
//	DI  row r of x, R10 cols·8, its stride; SI b; R9 c4·8; DX rows left
//	AX  byte offset of the four columns in the row
TEXT ·addRowVecAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ cols+24(FP), R10
	SHLQ $3, R10
	MOVQ c4+32(FP), R9
	SHLQ $3, R9

arv_row:
	XORQ AX, AX

arv_col:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     arv_col
	ADDQ    R10, DI
	DECQ    DX
	JNZ     arv_row
	VZEROUPPER
	RET

// func scaleAVX2(x *float64, n int, s float64)
// x[i] *= s for i in [0, n).
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD s+16(FP), Y0

scale2_loop16:
	CMPQ CX, $16
	JLT  scale2_loop4
	VMULPD (DI), Y0, Y1
	VMULPD 32(DI), Y0, Y2
	VMULPD 64(DI), Y0, Y3
	VMULPD 96(DI), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     scale2_loop16

scale2_loop4:
	CMPQ CX, $4
	JLT  scale2_loop1
	VMULPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     scale2_loop4

scale2_loop1:
	TESTQ CX, CX
	JEQ   scale2_done
	VMOVSD (DI), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    scale2_loop1

scale2_done:
	VZEROUPPER
	RET

// func vleakyAVX2(x *float64, n4 int, slope float64)
// x[i] = x[i] < 0 ? slope*x[i] : x[i] for i in [0, n4), n4 a multiple of
// 4. slope*x is computed per element exactly as the scalar reference
// (one multiply); the blend only selects, so the kernel is bit-identical.
TEXT ·vleakyAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n4+8(FP), CX
	VBROADCASTSD slope+16(FP), Y3
	VXORPD       Y0, Y0, Y0

vleaky_loop4:
	TESTQ     CX, CX
	JEQ       vleaky_done
	VMOVUPD   (DI), Y1
	VMULPD    Y1, Y3, Y2        // slope*x
	VCMPPD    $0x11, Y0, Y1, Y4 // mask = x < 0 (LT_OQ)
	VBLENDVPD Y4, Y2, Y1, Y1    // mask ? slope*x : x
	VMOVUPD   Y1, (DI)
	ADDQ      $32, DI
	SUBQ      $4, CX
	JMP       vleaky_loop4

vleaky_done:
	VZEROUPPER
	RET

// func actGradLRAVX2(dst, grad, out *float64, n4 int, slope float64)
// dst[i] = grad[i] * (out[i] > 0 ? 1 : slope) for i in [0, n4), n4 a
// multiple of 4: the LeakyReLU backward.
// The blend picks the same {1, slope} multiplier the scalar reference
// returns, then one multiply per element — identical including NaN
// propagation (NaN out selects slope, exactly like the scalar y>0 test).
TEXT ·actGradLRAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         out+16(FP), DX
	MOVQ         n4+24(FP), CX
	VBROADCASTSD slope+32(FP), Y3
	VXORPD       Y0, Y0, Y0
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X1
	VBROADCASTSD X1, Y4

actlr_loop4:
	TESTQ     CX, CX
	JEQ       actlr_done
	VMOVUPD   (DX), Y1
	VCMPPD    $0x1E, Y0, Y1, Y2 // mask = out > 0 (GT_OQ)
	VBLENDVPD Y2, Y4, Y3, Y2    // mask ? 1 : slope
	VMOVUPD   (SI), Y1
	VMULPD    Y2, Y1, Y1        // grad * multiplier
	VMOVUPD   Y1, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	ADDQ      $32, DX
	SUBQ      $4, CX
	JMP       actlr_loop4

actlr_done:
	VZEROUPPER
	RET

// func actGradTanhAVX2(dst, grad, out *float64, n4 int)
// dst[i] = grad[i] * (1 - out[i]*out[i]) for i in [0, n4), n4 a multiple
// of 4 — the tanh backward, elementwise with the scalar reference's
// multiply/subtract/multiply order.
TEXT ·actGradTanhAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         out+16(FP), DX
	MOVQ         n4+24(FP), CX
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X1
	VBROADCASTSD X1, Y4

acttanh_loop4:
	TESTQ   CX, CX
	JEQ     acttanh_done
	VMOVUPD (DX), Y1
	VMULPD  Y1, Y1, Y1 // y*y
	VSUBPD  Y1, Y4, Y1 // 1 - y*y
	VMOVUPD (SI), Y2
	VMULPD  Y1, Y2, Y1 // grad * (1 - y*y)
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     acttanh_loop4

acttanh_done:
	VZEROUPPER
	RET

// func actGradSigmoidAVX2(dst, grad, out *float64, n4 int)
// dst[i] = grad[i] * (out[i] * (1 - out[i])) for i in [0, n4), n4 a
// multiple of 4 — the sigmoid backward, same scalar operation order.
TEXT ·actGradSigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         out+16(FP), DX
	MOVQ         n4+24(FP), CX
	MOVQ         $0x3FF0000000000000, AX // 1.0
	MOVQ         AX, X1
	VBROADCASTSD X1, Y4

actsig_loop4:
	TESTQ   CX, CX
	JEQ     actsig_done
	VMOVUPD (DX), Y1
	VSUBPD  Y1, Y4, Y2 // 1 - y
	VMULPD  Y2, Y1, Y1 // y * (1 - y)
	VMOVUPD (SI), Y2
	VMULPD  Y1, Y2, Y1 // grad * (y*(1-y))
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     actsig_loop4

actsig_done:
	VZEROUPPER
	RET

// GEMM_SKIP jumps to SKIP when the multiplier at M is +0 or −0: doubling
// its bits shifts the sign out and leaves nothing else. NaN is not skipped.
#define GEMM_SKIP(M, SKIP) \
	MOVQ M, AX  \
	ADDQ AX, AX \
	JEQ  SKIP

// GEMM_MUL_ADD adds A times the four b values at OFF(R8) into ACC, with a
// separate multiply and add, as the scalar reference rounds them.
#define GEMM_MUL_ADD(OFF, A, ACC, T) \
	VMULPD OFF(R8), A, T \
	VADDPD T, ACC, ACC

// gemmmask<> row r−1 sets the first r lanes: the mask of a strip of r ≤ 4
// columns.
DATA gemmmask<>+0(SB)/8, $-1
DATA gemmmask<>+32(SB)/8, $-1
DATA gemmmask<>+40(SB)/8, $-1
DATA gemmmask<>+64(SB)/8, $-1
DATA gemmmask<>+72(SB)/8, $-1
DATA gemmmask<>+80(SB)/8, $-1
DATA gemmmask<>+96(SB)/8, $-1
DATA gemmmask<>+104(SB)/8, $-1
DATA gemmmask<>+112(SB)/8, $-1
DATA gemmmask<>+120(SB)/8, $-1
GLOBL gemmmask<>(SB), RODATA|NOPTR, $128

// func gemmRowsAVX2(out, a, b *float64, m, k, n, rowStride, pStride int)
// out[i][j] += x_i[p]·b[p][j] for p ascending, skipping x_i[p] = ±0, where
// out is m×n and b k×n, both row-major, and row i's multipliers are
// x_i[p] = a[i·rowStride + p·pStride] (GemmNN: k and 1; GemmTN: 1 and m).
// m, k and n are positive. Rows go two at a time, an odd last row alone.
// Their columns go in strips of 16, one of 8, then masked strips of at
// most 4. A strip's sums stay in registers from one load of out, over
// every p, to one store; the two rows share each load of b, which doubles
// the independent add chains a strip keeps in flight. The Go wrapper calls
// it once per panel of matMulKBlock rows of b.
//
//	DI  out row i, R13 x_i[0], BX b, R14 rows left
//	R10 n·8, the row stride of out and b; DX rowStride·8; R9 pStride·8
//	R11 the strip in out row i (row i+1 is R10 on), R15 the strip in b
//	    row 0, R12 columns left
//	SI  x_i[p] (x_{i+1}[p] is DX on), R8 the strip in b row p, CX p left
//	Y0–Y3 row i's sums, Y4–Y7 row i+1's, Y8 Y9 the multipliers,
//	Y10 the masked b values, Y11 the lane mask, Y12–Y15 products
TEXT ·gemmRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), R13
	MOVQ b+16(FP), BX
	MOVQ m+24(FP), R14
	MOVQ n+40(FP), R10
	SHLQ $3, R10
	MOVQ rowStride+48(FP), DX
	SHLQ $3, DX
	MOVQ pStride+56(FP), R9
	SHLQ $3, R9

gemm_pair:
	CMPQ R14, $2
	JLT  gemm_one
	MOVQ DI, R11
	MOVQ BX, R15
	MOVQ n+40(FP), R12

gemm_pair16:
	CMPQ    R12, $16
	JLT     gemm_pair8
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y2
	VMOVUPD 96(R11), Y3
	VMOVUPD (R11)(R10*1), Y4
	VMOVUPD 32(R11)(R10*1), Y5
	VMOVUPD 64(R11)(R10*1), Y6
	VMOVUPD 96(R11)(R10*1), Y7
	MOVQ    R13, SI
	MOVQ    R15, R8
	MOVQ    k+32(FP), CX

gemm_pair16_p:
	GEMM_SKIP((SI), gemm_pair16_row1)
	VBROADCASTSD (SI), Y8
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)
	GEMM_MUL_ADD(64, Y8, Y2, Y14)
	GEMM_MUL_ADD(96, Y8, Y3, Y15)

gemm_pair16_row1:
	GEMM_SKIP((SI)(DX*1), gemm_pair16_next)
	VBROADCASTSD (SI)(DX*1), Y9
	GEMM_MUL_ADD(0, Y9, Y4, Y12)
	GEMM_MUL_ADD(32, Y9, Y5, Y13)
	GEMM_MUL_ADD(64, Y9, Y6, Y14)
	GEMM_MUL_ADD(96, Y9, Y7, Y15)

gemm_pair16_next:
	ADDQ    R9, SI
	ADDQ    R10, R8
	DECQ    CX
	JNE     gemm_pair16_p
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, 96(R11)
	VMOVUPD Y4, (R11)(R10*1)
	VMOVUPD Y5, 32(R11)(R10*1)
	VMOVUPD Y6, 64(R11)(R10*1)
	VMOVUPD Y7, 96(R11)(R10*1)
	ADDQ    $128, R11
	ADDQ    $128, R15
	SUBQ    $16, R12
	JMP     gemm_pair16

gemm_pair8:
	CMPQ    R12, $8
	JLT     gemm_pair4
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD (R11)(R10*1), Y4
	VMOVUPD 32(R11)(R10*1), Y5
	MOVQ    R13, SI
	MOVQ    R15, R8
	MOVQ    k+32(FP), CX

gemm_pair8_p:
	GEMM_SKIP((SI), gemm_pair8_row1)
	VBROADCASTSD (SI), Y8
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)

gemm_pair8_row1:
	GEMM_SKIP((SI)(DX*1), gemm_pair8_next)
	VBROADCASTSD (SI)(DX*1), Y9
	GEMM_MUL_ADD(0, Y9, Y4, Y14)
	GEMM_MUL_ADD(32, Y9, Y5, Y15)

gemm_pair8_next:
	ADDQ    R9, SI
	ADDQ    R10, R8
	DECQ    CX
	JNE     gemm_pair8_p
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y4, (R11)(R10*1)
	VMOVUPD Y5, 32(R11)(R10*1)
	ADDQ    $64, R11
	ADDQ    $64, R15
	SUBQ    $8, R12

gemm_pair4:
	TESTQ      R12, R12
	JLE        gemm_pair_next
	MOVQ       $4, AX
	CMPQ       R12, AX
	CMOVQLT    R12, AX
	SHLQ       $5, AX
	LEAQ       gemmmask<>(SB), CX
	VMOVUPD    -32(CX)(AX*1), Y11
	VMASKMOVPD (R11), Y11, Y0
	VMASKMOVPD (R11)(R10*1), Y11, Y4
	MOVQ       R13, SI
	MOVQ       R15, R8
	MOVQ       k+32(FP), CX

gemm_pair4_p:
	VMASKMOVPD (R8), Y11, Y10
	GEMM_SKIP((SI), gemm_pair4_row1)
	VBROADCASTSD (SI), Y8
	VMULPD       Y10, Y8, Y12
	VADDPD       Y12, Y0, Y0

gemm_pair4_row1:
	GEMM_SKIP((SI)(DX*1), gemm_pair4_next)
	VBROADCASTSD (SI)(DX*1), Y9
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y4, Y4

gemm_pair4_next:
	ADDQ       R9, SI
	ADDQ       R10, R8
	DECQ       CX
	JNE        gemm_pair4_p
	VMASKMOVPD Y0, Y11, (R11)
	VMASKMOVPD Y4, Y11, (R11)(R10*1)
	ADDQ       $32, R11
	ADDQ       $32, R15
	SUBQ       $4, R12
	JMP        gemm_pair4

gemm_pair_next:
	LEAQ (DI)(R10*2), DI
	LEAQ (R13)(DX*2), R13
	SUBQ $2, R14
	JMP  gemm_pair

gemm_one:
	TESTQ R14, R14
	JEQ   gemm_done
	MOVQ  DI, R11
	MOVQ  BX, R15
	MOVQ  n+40(FP), R12

gemm_one16:
	CMPQ    R12, $16
	JLT     gemm_one8
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y2
	VMOVUPD 96(R11), Y3
	MOVQ    R13, SI
	MOVQ    R15, R8
	MOVQ    k+32(FP), CX

gemm_one16_p:
	GEMM_SKIP((SI), gemm_one16_next)
	VBROADCASTSD (SI), Y8
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)
	GEMM_MUL_ADD(64, Y8, Y2, Y14)
	GEMM_MUL_ADD(96, Y8, Y3, Y15)

gemm_one16_next:
	ADDQ    R9, SI
	ADDQ    R10, R8
	DECQ    CX
	JNE     gemm_one16_p
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, 96(R11)
	ADDQ    $128, R11
	ADDQ    $128, R15
	SUBQ    $16, R12
	JMP     gemm_one16

gemm_one8:
	CMPQ    R12, $8
	JLT     gemm_one4
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	MOVQ    R13, SI
	MOVQ    R15, R8
	MOVQ    k+32(FP), CX

gemm_one8_p:
	GEMM_SKIP((SI), gemm_one8_next)
	VBROADCASTSD (SI), Y8
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)

gemm_one8_next:
	ADDQ    R9, SI
	ADDQ    R10, R8
	DECQ    CX
	JNE     gemm_one8_p
	VMOVUPD Y0, (R11)
	VMOVUPD Y1, 32(R11)
	ADDQ    $64, R11
	ADDQ    $64, R15
	SUBQ    $8, R12

gemm_one4:
	TESTQ      R12, R12
	JLE        gemm_done
	MOVQ       $4, AX
	CMPQ       R12, AX
	CMOVQLT    R12, AX
	SHLQ       $5, AX
	LEAQ       gemmmask<>(SB), CX
	VMOVUPD    -32(CX)(AX*1), Y11
	VMASKMOVPD (R11), Y11, Y0
	MOVQ       R13, SI
	MOVQ       R15, R8
	MOVQ       k+32(FP), CX

gemm_one4_p:
	GEMM_SKIP((SI), gemm_one4_next)
	VMASKMOVPD   (R8), Y11, Y10
	VBROADCASTSD (SI), Y8
	VMULPD       Y10, Y8, Y12
	VADDPD       Y12, Y0, Y0

gemm_one4_next:
	ADDQ       R9, SI
	ADDQ       R10, R8
	DECQ       CX
	JNE        gemm_one4_p
	VMASKMOVPD Y0, Y11, (R11)
	ADDQ       $32, R11
	ADDQ       $32, R15
	SUBQ       $4, R12
	JMP        gemm_one4

gemm_done:
	VZEROUPPER
	RET

// NT_ADD_STORE adds a strip's sums ACC into the four out values at M
// through T, out + sum: the reference's one add per output element.
// NT_ADD_STORE_MASKED does the same on the lanes Y11 sets.
#define NT_ADD_STORE(M, ACC, T) \
	VMOVUPD M, T      \
	VADDPD  ACC, T, T \
	VMOVUPD T, M

#define NT_ADD_STORE_MASKED(M, ACC, T) \
	VMASKMOVPD M, Y11, T \
	VADDPD     ACC, T, T \
	VMASKMOVPD T, Y11, M

// func gemmNTRowsAVX2(out, a, bt *float64, m, k, n int)
// out[i][j] += s_ij, s_ij = Σ_p a[i][p]·bt[p][j] summed from +0 over p
// ascending with no zero skip, where out is m×n, a m×k and bt k×n, all
// row-major: GemmNT's contract on b transposed by the Go wrapper. m, k and
// n are positive. Rows, strips and registers follow gemmRowsAVX2, except
// that a strip's sums start at +0 in registers and meet out only in one
// add at the end, over the whole contraction.
//
//	DI  out row i, R13 a row i, BX bt, R14 rows left
//	R10 n·8, the row stride of out and bt; DX k·8, that of a
//	R11 the strip in out row i (row i+1 is R10 on), R15 the strip in bt
//	    row 0, R12 columns left
//	SI  a[i][p] (a[i+1][p] is DX on), R8 the strip in bt row p, CX p left
//	Y0–Y3 row i's sums, Y4–Y7 row i+1's, Y8 Y9 the multipliers,
//	Y10 the masked bt values, Y11 the lane mask, Y12–Y15 products
TEXT ·gemmNTRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), R13
	MOVQ bt+16(FP), BX
	MOVQ m+24(FP), R14
	MOVQ k+32(FP), DX
	SHLQ $3, DX
	MOVQ n+40(FP), R10
	SHLQ $3, R10

nt_pair:
	CMPQ R14, $2
	JLT  nt_one
	MOVQ DI, R11
	MOVQ BX, R15
	MOVQ n+40(FP), R12

nt_pair16:
	CMPQ   R12, $16
	JLT    nt_pair8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R13, SI
	MOVQ   R15, R8
	MOVQ   k+32(FP), CX

nt_pair16_p:
	VBROADCASTSD (SI), Y8
	VBROADCASTSD (SI)(DX*1), Y9
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)
	GEMM_MUL_ADD(64, Y8, Y2, Y14)
	GEMM_MUL_ADD(96, Y8, Y3, Y15)
	GEMM_MUL_ADD(0, Y9, Y4, Y12)
	GEMM_MUL_ADD(32, Y9, Y5, Y13)
	GEMM_MUL_ADD(64, Y9, Y6, Y14)
	GEMM_MUL_ADD(96, Y9, Y7, Y15)
	ADDQ         $8, SI
	ADDQ         R10, R8
	DECQ         CX
	JNE          nt_pair16_p
	NT_ADD_STORE((R11), Y0, Y12)
	NT_ADD_STORE(32(R11), Y1, Y13)
	NT_ADD_STORE(64(R11), Y2, Y14)
	NT_ADD_STORE(96(R11), Y3, Y15)
	NT_ADD_STORE((R11)(R10*1), Y4, Y12)
	NT_ADD_STORE(32(R11)(R10*1), Y5, Y13)
	NT_ADD_STORE(64(R11)(R10*1), Y6, Y14)
	NT_ADD_STORE(96(R11)(R10*1), Y7, Y15)
	ADDQ         $128, R11
	ADDQ         $128, R15
	SUBQ         $16, R12
	JMP          nt_pair16

nt_pair8:
	CMPQ   R12, $8
	JLT    nt_pair4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   R13, SI
	MOVQ   R15, R8
	MOVQ   k+32(FP), CX

nt_pair8_p:
	VBROADCASTSD (SI), Y8
	VBROADCASTSD (SI)(DX*1), Y9
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)
	GEMM_MUL_ADD(0, Y9, Y4, Y14)
	GEMM_MUL_ADD(32, Y9, Y5, Y15)
	ADDQ         $8, SI
	ADDQ         R10, R8
	DECQ         CX
	JNE          nt_pair8_p
	NT_ADD_STORE((R11), Y0, Y12)
	NT_ADD_STORE(32(R11), Y1, Y13)
	NT_ADD_STORE((R11)(R10*1), Y4, Y14)
	NT_ADD_STORE(32(R11)(R10*1), Y5, Y15)
	ADDQ         $64, R11
	ADDQ         $64, R15
	SUBQ         $8, R12

nt_pair4:
	TESTQ   R12, R12
	JLE     nt_pair_next
	MOVQ    $4, AX
	CMPQ    R12, AX
	CMOVQLT R12, AX
	SHLQ    $5, AX
	LEAQ    gemmmask<>(SB), CX
	VMOVUPD -32(CX)(AX*1), Y11
	VXORPD  Y0, Y0, Y0
	VXORPD  Y4, Y4, Y4
	MOVQ    R13, SI
	MOVQ    R15, R8
	MOVQ    k+32(FP), CX

nt_pair4_p:
	VMASKMOVPD   (R8), Y11, Y10
	VBROADCASTSD (SI), Y8
	VBROADCASTSD (SI)(DX*1), Y9
	VMULPD       Y10, Y8, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y4, Y4
	ADDQ         $8, SI
	ADDQ         R10, R8
	DECQ         CX
	JNE          nt_pair4_p
	NT_ADD_STORE_MASKED((R11), Y0, Y12)
	NT_ADD_STORE_MASKED((R11)(R10*1), Y4, Y13)
	ADDQ         $32, R11
	ADDQ         $32, R15
	SUBQ         $4, R12
	JMP          nt_pair4

nt_pair_next:
	LEAQ (DI)(R10*2), DI
	LEAQ (R13)(DX*2), R13
	SUBQ $2, R14
	JMP  nt_pair

nt_one:
	TESTQ R14, R14
	JEQ   nt_done
	MOVQ  DI, R11
	MOVQ  BX, R15
	MOVQ  n+40(FP), R12

nt_one16:
	CMPQ   R12, $16
	JLT    nt_one8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R13, SI
	MOVQ   R15, R8
	MOVQ   k+32(FP), CX

nt_one16_p:
	VBROADCASTSD (SI), Y8
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)
	GEMM_MUL_ADD(64, Y8, Y2, Y14)
	GEMM_MUL_ADD(96, Y8, Y3, Y15)
	ADDQ         $8, SI
	ADDQ         R10, R8
	DECQ         CX
	JNE          nt_one16_p
	NT_ADD_STORE((R11), Y0, Y12)
	NT_ADD_STORE(32(R11), Y1, Y13)
	NT_ADD_STORE(64(R11), Y2, Y14)
	NT_ADD_STORE(96(R11), Y3, Y15)
	ADDQ         $128, R11
	ADDQ         $128, R15
	SUBQ         $16, R12
	JMP          nt_one16

nt_one8:
	CMPQ   R12, $8
	JLT    nt_one4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R13, SI
	MOVQ   R15, R8
	MOVQ   k+32(FP), CX

nt_one8_p:
	VBROADCASTSD (SI), Y8
	GEMM_MUL_ADD(0, Y8, Y0, Y12)
	GEMM_MUL_ADD(32, Y8, Y1, Y13)
	ADDQ         $8, SI
	ADDQ         R10, R8
	DECQ         CX
	JNE          nt_one8_p
	NT_ADD_STORE((R11), Y0, Y12)
	NT_ADD_STORE(32(R11), Y1, Y13)
	ADDQ         $64, R11
	ADDQ         $64, R15
	SUBQ         $8, R12

nt_one4:
	TESTQ   R12, R12
	JLE     nt_done
	MOVQ    $4, AX
	CMPQ    R12, AX
	CMOVQLT R12, AX
	SHLQ    $5, AX
	LEAQ    gemmmask<>(SB), CX
	VMOVUPD -32(CX)(AX*1), Y11
	VXORPD  Y0, Y0, Y0
	MOVQ    R13, SI
	MOVQ    R15, R8
	MOVQ    k+32(FP), CX

nt_one4_p:
	VMASKMOVPD   (R8), Y11, Y10
	VBROADCASTSD (SI), Y8
	VMULPD       Y10, Y8, Y12
	VADDPD       Y12, Y0, Y0
	ADDQ         $8, SI
	ADDQ         R10, R8
	DECQ         CX
	JNE          nt_one4_p
	NT_ADD_STORE_MASKED((R11), Y0, Y12)
	ADDQ         $32, R11
	ADDQ         $32, R15
	SUBQ         $4, R12
	JMP          nt_one4

nt_done:
	VZEROUPPER
	RET

// func transposeAVX2(dst, src *float64, rows4, cols4, rows, cols int)
// dst[c][r] = src[r][c] for r < rows4 and c < cols4, both positive
// multiples of 4, where src is rows×cols and dst cols×rows, both
// row-major. Each 4×4 tile is transposed in registers: two-row halves of
// the source go into the two 128-bit lanes as they load, and four unpacks
// finish it. Column blocks go in
// the outer loop, so the four dst rows a block fills are each written
// front to back.
//
//	DI  dst row c, SI src column c, AX the tile in src, BX the tile in dst
//	R9  rows·8, the row stride of dst, R12 three of them
//	R10 cols·8, the row stride of src, R11 three of them
//	CX  columns left, DX rows left
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ cols4+24(FP), CX
	MOVQ rows+32(FP), R9
	SHLQ $3, R9
	MOVQ cols+40(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	LEAQ (R9)(R9*2), R12

tr_block:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ rows4+16(FP), DX

tr_tile:
	VMOVUPD     (AX), X0
	VINSERTF128 $1, (AX)(R10*2), Y0, Y0
	VMOVUPD     (AX)(R10*1), X1
	VINSERTF128 $1, (AX)(R11*1), Y1, Y1
	VMOVUPD     16(AX), X2
	VINSERTF128 $1, 16(AX)(R10*2), Y2, Y2
	VMOVUPD     16(AX)(R10*1), X3
	VINSERTF128 $1, 16(AX)(R11*1), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VMOVUPD     Y4, (BX)
	VMOVUPD     Y5, (BX)(R9*1)
	VMOVUPD     Y6, (BX)(R9*2)
	VMOVUPD     Y7, (BX)(R12*1)
	LEAQ        (AX)(R10*4), AX
	ADDQ        $32, BX
	SUBQ        $4, DX
	JNE         tr_tile
	ADDQ        $32, SI
	LEAQ        (DI)(R9*4), DI
	SUBQ        $4, CX
	JNE         tr_block
	VZEROUPPER
	RET

// PAIR_HIDDEN turns H — the 4 candidates' p values of hidden unit r, at
// byte offset OFF from the cursor R13 — into that unit's activation:
// (pi[r] − p) + b1[r], then the vleakyAVX2 select. PAIR_ACC adds row W's
// product with it to ACC. Same operations and operand order as the scalar
// forms in the tail below, so a candidate's bits do not depend on which
// of the two scored it.
#define PAIR_HIDDEN(H, OFF) \
	VBROADCASTSD OFF(AX)(R13*1), Y8 \
	VSUBPD       H, Y8, H           \ // pi[r] − p
	VBROADCASTSD OFF(BX)(R13*1), Y8 \
	VADDPD       Y8, H, H           \ // + b1[r]
	VMULPD       H, Y1, Y9          \ // slope*h
	VCMPPD       $0x11, Y0, H, Y10  \ // mask = h < 0 (LT_OQ)
	VBLENDVPD    Y10, Y9, H, H        // mask ? slope*h : h

#define PAIR_ACC(H, OFF, W, ACC) \
	VBROADCASTSD OFF(W)(R13*1), Y8 \
	VMULPD       H, Y8, Y9         \ // w2[q][r]*h
	VADDPD       Y9, ACC, ACC

// PAIR_TILE loads hidden units r..r+3 of the tile's four rows and
// transposes the 4×4 block in registers: Y4..Y7 end up holding one hidden
// unit each, across the four candidates.
#define PAIR_TILE \
	VMOVUPD    (R8)(R13*1), Y4      \
	VMOVUPD    (R9)(R13*1), Y5      \
	VMOVUPD    (R10)(R13*1), Y6     \
	VMOVUPD    (R11)(R13*1), Y7     \
	VUNPCKLPD  Y5, Y4, Y8           \
	VUNPCKHPD  Y5, Y4, Y9           \
	VUNPCKLPD  Y7, Y6, Y10          \
	VUNPCKHPD  Y7, Y6, Y11          \
	VPERM2F128 $0x20, Y10, Y8, Y4   \
	VPERM2F128 $0x20, Y11, Y9, Y5   \
	VPERM2F128 $0x31, Y10, Y8, Y6   \
	VPERM2F128 $0x31, Y11, Y9, Y7

// func pairLogitsAVX2(out *float64, stride int, w2 *float64, kq, dh int, pi, b1, p *float64, ld int, idx *int, c int, slope float64)
// Backend.PairLogits for kq ∈ {1, 2} and dh a positive multiple of 4; the
// Go wrapper has checked every address. Candidates go four at a time, one
// per vector lane, each lane summing its products over ascending r from
// +0; the c%4 tail runs the same sequence one candidate at a time.
//
//	DI  out[0][k]; the second row is stride values on
//	DX  idx cursor, or nil: the rows are consecutive and SI walks them
//	SI  p, R12 its row stride in bytes, R8–R11 the tile's four rows
//	AX  pi, BX b1, R15 w2[0], R14 w2[1]
//	R13 byte cursor over the hidden units, −8·dh up to 0: every pointer
//	    above except DI and DX is biased to the end of its dh values
//	Y0  zero, Y1 slope, Y2 Y3 the two rows' sums, Y4–Y7 tile, Y8–Y11 scratch
TEXT ·pairLogitsAVX2(SB), NOSPLIT, $0-96
	MOVQ dh+32(FP), R13
	SHLQ $3, R13
	MOVQ pi+40(FP), AX
	ADDQ R13, AX
	MOVQ b1+48(FP), BX
	ADDQ R13, BX
	MOVQ w2+16(FP), R15
	ADDQ R13, R15
	LEAQ (R15)(R13*1), R14
	MOVQ p+56(FP), SI
	ADDQ R13, SI
	MOVQ ld+64(FP), R12
	SHLQ $3, R12
	MOVQ idx+72(FP), DX
	MOVQ c+80(FP), CX
	MOVQ out+0(FP), DI
	VBROADCASTSD slope+88(FP), Y1
	VXORPD Y0, Y0, Y0

pair_tile:
	CMPQ  CX, $4
	JLT   pair_tail
	TESTQ DX, DX
	JEQ   pair_tile_consecutive
	MOVQ  (DX), R8
	IMULQ R12, R8
	ADDQ  SI, R8
	MOVQ  8(DX), R9
	IMULQ R12, R9
	ADDQ  SI, R9
	MOVQ  16(DX), R10
	IMULQ R12, R10
	ADDQ  SI, R10
	MOVQ  24(DX), R11
	IMULQ R12, R11
	ADDQ  SI, R11
	ADDQ  $32, DX
	JMP   pair_tile_rows

pair_tile_consecutive:
	MOVQ SI, R8
	LEAQ (R8)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	LEAQ (R11)(R12*1), SI

pair_tile_rows:
	MOVQ   dh+32(FP), R13
	SHLQ   $3, R13
	NEGQ   R13
	VXORPD Y2, Y2, Y2
	CMPQ   kq+24(FP), $2
	JEQ    pair_tile_two

pair_tile_one:
	PAIR_TILE
	PAIR_HIDDEN(Y4, 0)
	PAIR_ACC(Y4, 0, R15, Y2)
	PAIR_HIDDEN(Y5, 8)
	PAIR_ACC(Y5, 8, R15, Y2)
	PAIR_HIDDEN(Y6, 16)
	PAIR_ACC(Y6, 16, R15, Y2)
	PAIR_HIDDEN(Y7, 24)
	PAIR_ACC(Y7, 24, R15, Y2)
	ADDQ    $32, R13
	JNE     pair_tile_one
	VMOVUPD Y2, (DI)
	JMP     pair_tile_next

pair_tile_two:
	VXORPD Y3, Y3, Y3

pair_tile_two_loop:
	PAIR_TILE
	PAIR_HIDDEN(Y4, 0)
	PAIR_ACC(Y4, 0, R15, Y2)
	PAIR_ACC(Y4, 0, R14, Y3)
	PAIR_HIDDEN(Y5, 8)
	PAIR_ACC(Y5, 8, R15, Y2)
	PAIR_ACC(Y5, 8, R14, Y3)
	PAIR_HIDDEN(Y6, 16)
	PAIR_ACC(Y6, 16, R15, Y2)
	PAIR_ACC(Y6, 16, R14, Y3)
	PAIR_HIDDEN(Y7, 24)
	PAIR_ACC(Y7, 24, R15, Y2)
	PAIR_ACC(Y7, 24, R14, Y3)
	ADDQ    $32, R13
	JNE     pair_tile_two_loop
	VMOVUPD Y2, (DI)
	MOVQ    stride+8(FP), R13
	VMOVUPD Y3, (DI)(R13*8)

pair_tile_next:
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  pair_tile

pair_tail:
	TESTQ CX, CX
	JEQ   pair_done
	TESTQ DX, DX
	JEQ   pair_tail_consecutive
	MOVQ  (DX), R8
	IMULQ R12, R8
	ADDQ  SI, R8
	ADDQ  $8, DX
	JMP   pair_tail_row

pair_tail_consecutive:
	MOVQ SI, R8
	ADDQ R12, SI

pair_tail_row:
	MOVQ   dh+32(FP), R13
	SHLQ   $3, R13
	NEGQ   R13
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3

pair_tail_loop:
	VMOVSD    (AX)(R13*1), X4
	VSUBSD    (R8)(R13*1), X4, X4 // pi[r] − p
	VADDSD    (BX)(R13*1), X4, X4 // + b1[r]
	VMULSD    X4, X1, X9          // slope*h
	VCMPSD    $0x11, X0, X4, X10  // mask = h < 0 (LT_OQ)
	VBLENDVPD X10, X9, X4, X4     // mask ? slope*h : h
	VMOVSD    (R15)(R13*1), X8
	VMULSD    X4, X8, X9          // w2[0][r]*h
	VADDSD    X9, X2, X2
	CMPQ      kq+24(FP), $2
	JNE       pair_tail_step
	VMOVSD    (R14)(R13*1), X8
	VMULSD    X4, X8, X9          // w2[1][r]*h
	VADDSD    X9, X3, X3

pair_tail_step:
	ADDQ   $8, R13
	JNE    pair_tail_loop
	VMOVSD X2, (DI)
	CMPQ   kq+24(FP), $2
	JNE    pair_tail_next
	MOVQ   stride+8(FP), R13
	VMOVSD X3, (DI)(R13*8)

pair_tail_next:
	ADDQ $8, DI
	DECQ CX
	JMP  pair_tail

pair_done:
	VZEROUPPER
	RET

// The exp kernel replays math.Exp's amd64 routine, archExp
// ($GOROOT/src/math/exp_amd64.s), on four lanes at once: its avxfma path,
// one packed instruction per scalar one, each rounding every lane as the
// scalar instruction rounds its one value. The constants are archExp's,
// written the same way, four copies each so they serve as memory
// operands.
#define EXPCONST(off, v) \
	DATA expconst<>+(off)(SB)/8, v    \
	DATA expconst<>+(off+8)(SB)/8, v  \
	DATA expconst<>+(off+16)(SB)/8, v \
	DATA expconst<>+(off+24)(SB)/8, v

EXPCONST(0, $1.4426950408889634073599246810018920)           // LOG2E
EXPCONST(32, $0.69314718055966295651160180568695068359375)   // LN2U
EXPCONST(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
EXPCONST(96, $0.0625)
EXPCONST(128, $2.4801587301587301587e-5)
EXPCONST(160, $1.9841269841269841270e-4)
EXPCONST(192, $1.3888888888888888889e-3)
EXPCONST(224, $8.3333333333333333333e-3)
EXPCONST(256, $4.1666666666666666667e-2)
EXPCONST(288, $1.6666666666666666667e-1)
EXPCONST(320, $0.5)
EXPCONST(352, $1.0)
EXPCONST(384, $2.0)
EXPCONST(416, $0x3FF)                 // exponent bias
EXPCONST(448, $0x7FFFFFFFFFFFFFFF)    // |x| mask
EXPCONST(480, $708.0)                 // the kernel's range bound
EXPCONST(512, $0x8000000000000000)    // sign bit
GLOBL expconst<>(SB), RODATA|NOPTR, $544

// EXP_RANGE jumps to FAIL unless every lane of X lies in [−708, 708].
// There archExp takes no branch (it branches on NaN, ±Inf, x > 709.78 and
// a 2^k that is not normal), so the lanes EXP4 sees are the ones its
// straight-line path serves. NaN fails the ordered compare.
#define EXP_RANGE(X, FAIL) \
	VANDPD    expconst<>+448(SB), X, Y3         \
	VCMPPD    $0x12, expconst<>+480(SB), Y3, Y3 \ // |x| <= 708 (LE_OQ)
	VMOVMSKPD Y3, BX                            \
	CMPQ      BX, $15                           \
	JNE       FAIL

// EXP4 replaces each lane of Y0 by its exp; Y1 and Y2 are scratch. Beside
// each line, the archExp instruction it replays (X0 = x, BX = k).
#define EXP4 \
	VMULPD       expconst<>+0(SB), Y0, Y1   \ // MULSD X0, X1: x·LOG2E
	VCVTPD2DQY   Y1, X2                     \ // CVTSD2SL X1, BX: k, to nearest
	VCVTDQ2PD    X2, Y1                     \ // CVTSL2SD BX, X1
	VFNMADD231PD expconst<>+32(SB), Y1, Y0  \ // VFNMADD231SD: x − k·LN2U
	VFNMADD231PD expconst<>+64(SB), Y1, Y0  \ // VFNMADD231SD: − k·LN2L
	VMULPD       expconst<>+96(SB), Y0, Y0  \ // MULSD $0.0625, X0
	VMOVUPD      expconst<>+128(SB), Y1     \ // Taylor series, Horner form:
	VFMADD213PD  expconst<>+160(SB), Y0, Y1 \ // seven VFMADD213SD
	VFMADD213PD  expconst<>+192(SB), Y0, Y1 \
	VFMADD213PD  expconst<>+224(SB), Y0, Y1 \
	VFMADD213PD  expconst<>+256(SB), Y0, Y1 \
	VFMADD213PD  expconst<>+288(SB), Y0, Y1 \
	VFMADD213PD  expconst<>+320(SB), Y0, Y1 \
	VFMADD213PD  expconst<>+352(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0                 \ // MULSD X1, X0: y
	VADDPD       expconst<>+384(SB), Y0, Y1 \ // four y·(y+2) steps
	VMULPD       Y1, Y0, Y0                 \
	VADDPD       expconst<>+384(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0                 \
	VADDPD       expconst<>+384(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0                 \
	VADDPD       expconst<>+384(SB), Y0, Y1 \
	VFMADD213PD  expconst<>+352(SB), Y1, Y0 \ // the last fused with +1
	VPMOVSXDQ    X2, Y1                     \ // 2^k: ADDL $0x3FF, BX
	VPADDQ       expconst<>+416(SB), Y1, Y1 \
	VPSLLQ       $52, Y1, Y1                \ // SHLQ $52, BX
	VMULPD       Y1, Y0, Y0                   // MULSD X1, X0

// func vexpAVX2(x *float64, n4 int) (done int)
// x[i] = math.Exp(x[i]) for i in [0, done), n4 a multiple of 4. done is
// n4, or the start of the first block EXP_RANGE refused, which the Go
// wrapper finishes with math.Exp before calling again past it.
TEXT ·vexpAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n4+8(FP), CX
	XORQ AX, AX

vexp_loop:
	CMPQ    AX, CX
	JGE     vexp_done
	VMOVUPD (DI)(AX*8), Y0
	EXP_RANGE(Y0, vexp_done)
	EXP4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     vexp_loop

vexp_done:
	MOVQ AX, done+16(FP)
	VZEROUPPER
	RET

// func vsigmoidAVX2(x *float64, n4 int) (done int)
// x[i] = sigmoid(x[i]) for i in [0, done), as vexpAVX2. The reference's
// two branches become a blend on its own x >= 0 test:
// 1/(1+exp(−x)) there, exp(x)/(1+exp(x)) elsewhere.
TEXT ·vsigmoidAVX2(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), DI
	MOVQ   n4+8(FP), CX
	XORQ   AX, AX
	VXORPD Y7, Y7, Y7

vsig_loop:
	CMPQ      AX, CX
	JGE       vsig_done
	VMOVUPD   (DI)(AX*8), Y5
	EXP_RANGE(Y5, vsig_done)
	VCMPPD    $0x1D, Y7, Y5, Y6                 // m = x >= 0 (GE_OQ)
	VXORPD    expconst<>+512(SB), Y5, Y0        // −x
	VBLENDVPD Y6, Y0, Y5, Y0                    // m ? −x : x
	EXP4                                        // e
	VADDPD    expconst<>+352(SB), Y0, Y1        // 1 + e
	VBLENDVPD Y6, expconst<>+352(SB), Y0, Y0    // m ? 1 : e
	VDIVPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       vsig_loop

vsig_done:
	MOVQ AX, done+16(FP)
	VZEROUPPER
	RET

// The tanh kernel replays math.tanh ($GOROOT/src/math/tanh.go) as the Go
// compiler builds it for amd64 (no FMA contraction), every branch on
// every lane, then keeps each lane's own branch by blend. Per lane, with
// z = |x|: ±1 above 0.5·MAXLOG; 1 − 2/(exp(2z)+1) with x's sign from
// 0.625 up, exp by EXP4, since math.Exp is archExp there and 2z ≤ 88.03 is
// inside its branch-free range; below that x + x·s·P(s)/Q(s), s = x·x,
// except that ±0 is returned as it is. The polynomial constants are
// tanhP and tanhQ, in that order, then the two thresholds.
#define TANHCONST(off, v) \
	DATA tanhconst<>+(off)(SB)/8, v    \
	DATA tanhconst<>+(off+8)(SB)/8, v  \
	DATA tanhconst<>+(off+16)(SB)/8, v \
	DATA tanhconst<>+(off+24)(SB)/8, v

TANHCONST(0, $-9.64399179425052238628e-1)
TANHCONST(32, $-9.92877231001918586564e1)
TANHCONST(64, $-1.61468768441708447952e3)
TANHCONST(96, $1.12811678491632931402e2)
TANHCONST(128, $2.23548839060100448583e3)
TANHCONST(160, $4.84406305325125486048e3)
TANHCONST(192, $0.625)
TANHCONST(224, $44.014845965556525)   // 0.5·MAXLOG
GLOBL tanhconst<>(SB), RODATA|NOPTR, $256

// func vtanhAVX2(x *float64, n4 int) (done int)
// x[i] = math.Tanh(x[i]) for i in [0, done), n4 a multiple of 4. done is
// n4, or the start of the first block holding a NaN, which the Go wrapper
// finishes with math.Tanh before calling again past it.
//
//	Y5  x, Y6 z, Y7 x's sign bits, Y15 zero
//	Y4  the exp branch, Y9 the polynomial's, Y8 s, Y10 Y11 scratch
TEXT ·vtanhAVX2(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), DI
	MOVQ   n4+8(FP), CX
	XORQ   AX, AX
	VXORPD Y15, Y15, Y15

vtanh_loop:
	CMPQ      AX, CX
	JGE       vtanh_done
	VMOVUPD   (DI)(AX*8), Y5
	VCMPPD    $0x03, Y5, Y5, Y3                  // NaN lanes (UNORD_Q)
	VMOVMSKPD Y3, BX
	TESTQ     BX, BX
	JNE       vtanh_done
	VANDPD    expconst<>+448(SB), Y5, Y6         // z = |x|
	VANDPD    expconst<>+512(SB), Y5, Y7

	// The min keeps the lanes that take another branch inside EXP4's range.
	VMINPD    tanhconst<>+224(SB), Y6, Y0
	VADDPD    Y0, Y0, Y0                         // 2z
	EXP4                                         // s = exp(2z)
	VADDPD    expconst<>+352(SB), Y0, Y0         // s + 1
	VMOVUPD   expconst<>+384(SB), Y1
	VDIVPD    Y0, Y1, Y0                         // 2/(s+1)
	VMOVUPD   expconst<>+352(SB), Y1
	VSUBPD    Y0, Y1, Y0                         // 1 − 2/(s+1)
	VXORPD    Y7, Y0, Y4                         // negated where x < 0

	VMULPD    Y5, Y5, Y8                         // s = x·x
	VMULPD    Y8, Y5, Y9                         // x·s
	VMULPD    tanhconst<>+0(SB), Y8, Y10         // P(s), Horner
	VADDPD    tanhconst<>+32(SB), Y10, Y10
	VMULPD    Y8, Y10, Y10
	VADDPD    tanhconst<>+64(SB), Y10, Y10
	VMULPD    Y10, Y9, Y9                        // x·s·P(s)
	VADDPD    tanhconst<>+96(SB), Y8, Y10        // Q(s), Horner
	VMULPD    Y8, Y10, Y10
	VADDPD    tanhconst<>+128(SB), Y10, Y10
	VMULPD    Y8, Y10, Y10
	VADDPD    tanhconst<>+160(SB), Y10, Y10
	VDIVPD    Y10, Y9, Y9                        // x·s·P(s)/Q(s)
	VADDPD    Y9, Y5, Y9                         // x + that
	VCMPPD    $0x00, Y15, Y5, Y10                // x == 0 (EQ_OQ)
	VBLENDVPD Y10, Y5, Y9, Y9

	VCMPPD    $0x1D, tanhconst<>+192(SB), Y6, Y10 // z >= 0.625 (GE_OQ)
	VBLENDVPD Y10, Y4, Y9, Y9
	VCMPPD    $0x1E, tanhconst<>+224(SB), Y6, Y10 // z > 0.5·MAXLOG (GT_OQ)
	VORPD     expconst<>+352(SB), Y7, Y11        // ±1
	VBLENDVPD Y10, Y11, Y9, Y9
	VMOVUPD   Y9, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       vtanh_loop

vtanh_done:
	MOVQ AX, done+16(FP)
	VZEROUPPER
	RET
