#include "textflag.h"

// The matrix kernels on 256-bit AVX lanes. Each is the Go loop of the
// same name in vec.go with its four accumulator chains s0..s3 held as
// the four lanes of one Y register, so every sum is formed in the same
// order and every result has the same bits:
//
//   - products and sums stay separate instructions (VMULPD, then
//     VADDPD); nothing is fused;
//   - a dot product folds its lanes as (s0+s1)+(s2+s3), then adds the
//     scalar tail column by column, then y0, as matVecGo does;
//   - matTVecAdd and outerAdd skip the rows whose dy is ±0.
//
// The Go wrappers in kern_amd64.go have checked every length.

// HSUM leaves (s0+s1)+(s2+s3) of the lanes of Y in the low lane of X
// (X is Y's low half), using T as scratch.
#define HSUM(Y, X, T) \
	VEXTRACTF128 $1, Y, T; \
	VHADDPD      T, X, X;  \
	VHADDPD      X, X, X

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func matVecAVX(w []float64, rows, cols int, x, y0, y []float64)
//
// Four rows at a time (R8..R11), each with its own accumulator
// (Y0..Y3), sharing the loads of x; then one row at a time.
TEXT ·matVecAVX(SB), NOSPLIT, $0-112
	MOVQ w_base+0(FP), R8
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	MOVQ x_base+40(FP), SI
	MOVQ y0_base+64(FP), R12
	MOVQ y_base+88(FP), DI
	SHLQ $3, BX                // BX = bytes per row
	MOVQ BX, AX
	ANDQ $-32, AX              // AX = bytes the 4-wide loop covers

mvRows4:
	CMPQ CX, $4
	JLT  mvRows1
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ DX, DX

mvLanes4:
	CMPQ DX, AX
	JGE  mvFold4
	VMOVUPD (SI)(DX*1), Y4
	VMULPD  (R8)(DX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9)(DX*1), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R10)(DX*1), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R11)(DX*1), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ $32, DX
	JMP  mvLanes4

mvFold4:
	HSUM(Y0, X0, X5)
	HSUM(Y1, X1, X6)
	HSUM(Y2, X2, X7)
	HSUM(Y3, X3, X8)

mvTail4:
	CMPQ DX, BX
	JGE  mvBias4
	VMOVSD (SI)(DX*1), X4
	VMULSD (R8)(DX*1), X4, X5
	VADDSD X5, X0, X0
	VMULSD (R9)(DX*1), X4, X6
	VADDSD X6, X1, X1
	VMULSD (R10)(DX*1), X4, X7
	VADDSD X7, X2, X2
	VMULSD (R11)(DX*1), X4, X8
	VADDSD X8, X3, X3
	ADDQ $8, DX
	JMP  mvTail4

mvBias4:
	TESTQ R12, R12
	JZ    mvStore4
	VADDSD (R12), X0, X0
	VADDSD 8(R12), X1, X1
	VADDSD 16(R12), X2, X2
	VADDSD 24(R12), X3, X3
	ADDQ $32, R12

mvStore4:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ $32, DI
	LEAQ (R11)(BX*1), R8
	SUBQ $4, CX
	JMP  mvRows4

mvRows1:
	TESTQ CX, CX
	JZ    mvDone
	VXORPD Y0, Y0, Y0
	XORQ DX, DX

mvLanes1:
	CMPQ DX, AX
	JGE  mvFold1
	VMOVUPD (SI)(DX*1), Y4
	VMULPD  (R8)(DX*1), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ $32, DX
	JMP  mvLanes1

mvFold1:
	HSUM(Y0, X0, X5)

mvTail1:
	CMPQ DX, BX
	JGE  mvBias1
	VMOVSD (SI)(DX*1), X4
	VMULSD (R8)(DX*1), X4, X5
	VADDSD X5, X0, X0
	ADDQ $8, DX
	JMP  mvTail1

mvBias1:
	TESTQ R12, R12
	JZ    mvStore1
	VADDSD (R12), X0, X0
	ADDQ $8, R12

mvStore1:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ BX, R8
	DECQ CX
	JMP  mvRows1

mvDone:
	VZEROUPPER
	RET

// func matTVecAddAVX(w []float64, rows, cols int, dy, dx []float64)
//
// Column blocks of 16, then 4, then 1: each block of dx stays in
// registers while every row adds into it, in row order.
TEXT ·matTVecAddAVX(SB), NOSPLIT, $0-88
	MOVQ w_base+0(FP), R8      // R8 = the block's first column, row 0
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	MOVQ dy_base+40(FP), SI
	MOVQ dx_base+64(FP), DI    // DI = the block's first column of dx
	SHLQ $3, BX                // BX = bytes per row
	MOVQ BX, R13               // R13 = bytes of dx left

tvBlock16:
	CMPQ R13, $128
	JLT  tvBlock4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ R8, R9
	XORQ DX, DX

tvRow16:
	CMPQ DX, CX
	JGE  tvStore16
	MOVQ (SI)(DX*8), AX
	SHLQ $1, AX                // drop the sign: zero iff dy is ±0
	JZ   tvSkip16
	VBROADCASTSD (SI)(DX*8), Y4
	VMULPD (R9), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R9), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R9), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R9), Y4, Y8
	VADDPD Y8, Y3, Y3

tvSkip16:
	ADDQ BX, R9
	INCQ DX
	JMP  tvRow16

tvStore16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, R8
	ADDQ $128, DI
	SUBQ $128, R13
	JMP  tvBlock16

tvBlock4:
	CMPQ R13, $32
	JLT  tvBlock1
	VMOVUPD (DI), Y0
	MOVQ R8, R9
	XORQ DX, DX

tvRow4:
	CMPQ DX, CX
	JGE  tvStore4
	MOVQ (SI)(DX*8), AX
	SHLQ $1, AX
	JZ   tvSkip4
	VBROADCASTSD (SI)(DX*8), Y4
	VMULPD (R9), Y4, Y5
	VADDPD Y5, Y0, Y0

tvSkip4:
	ADDQ BX, R9
	INCQ DX
	JMP  tvRow4

tvStore4:
	VMOVUPD Y0, (DI)
	ADDQ $32, R8
	ADDQ $32, DI
	SUBQ $32, R13
	JMP  tvBlock4

tvBlock1:
	TESTQ R13, R13
	JZ    tvDone
	VMOVSD (DI), X0
	MOVQ R8, R9
	XORQ DX, DX

tvRow1:
	CMPQ DX, CX
	JGE  tvStore1
	MOVQ (SI)(DX*8), AX
	SHLQ $1, AX
	JZ   tvSkip1
	VMOVSD (SI)(DX*8), X4
	VMULSD (R9), X4, X5
	VADDSD X5, X0, X0

tvSkip1:
	ADDQ BX, R9
	INCQ DX
	JMP  tvRow1

tvStore1:
	VMOVSD X0, (DI)
	ADDQ $8, R8
	ADDQ $8, DI
	SUBQ $8, R13
	JMP  tvBlock1

tvDone:
	VZEROUPPER
	RET

// func outerAddAVX(dw []float64, rows, cols int, dy, x []float64)
//
// Row by row, skipping rows whose dy is ±0: 16 columns at a time, then
// 4, then 1.
TEXT ·outerAddAVX(SB), NOSPLIT, $0-88
	MOVQ dw_base+0(FP), R8     // R8 = the current row of dW
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	MOVQ dy_base+40(FP), SI
	MOVQ x_base+64(FP), DI
	SHLQ $3, BX                // BX = bytes per row
	MOVQ BX, AX
	ANDQ $-128, AX             // AX = bytes the 16-wide loop covers
	MOVQ BX, R10
	ANDQ $-32, R10             // R10 = bytes the 4-wide loop covers

oaRow:
	TESTQ CX, CX
	JZ    oaDone
	MOVQ (SI), R11
	SHLQ $1, R11               // drop the sign: zero iff dy is ±0
	JZ   oaNext
	VBROADCASTSD (SI), Y4
	XORQ DX, DX

oaCols16:
	CMPQ DX, AX
	JGE  oaCols4
	VMULPD  (DI)(DX*1), Y4, Y0
	VADDPD  (R8)(DX*1), Y0, Y0
	VMOVUPD Y0, (R8)(DX*1)
	VMULPD  32(DI)(DX*1), Y4, Y1
	VADDPD  32(R8)(DX*1), Y1, Y1
	VMOVUPD Y1, 32(R8)(DX*1)
	VMULPD  64(DI)(DX*1), Y4, Y2
	VADDPD  64(R8)(DX*1), Y2, Y2
	VMOVUPD Y2, 64(R8)(DX*1)
	VMULPD  96(DI)(DX*1), Y4, Y3
	VADDPD  96(R8)(DX*1), Y3, Y3
	VMOVUPD Y3, 96(R8)(DX*1)
	ADDQ $128, DX
	JMP  oaCols16

oaCols4:
	CMPQ DX, R10
	JGE  oaCols1
	VMULPD  (DI)(DX*1), Y4, Y0
	VADDPD  (R8)(DX*1), Y0, Y0
	VMOVUPD Y0, (R8)(DX*1)
	ADDQ $32, DX
	JMP  oaCols4

oaCols1:
	CMPQ DX, BX
	JGE  oaNext
	VMULSD (DI)(DX*1), X4, X0
	VADDSD (R8)(DX*1), X0, X0
	VMOVSD X0, (R8)(DX*1)
	ADDQ $8, DX
	JMP  oaCols1

oaNext:
	ADDQ BX, R8
	ADDQ $8, SI
	DECQ CX
	JMP  oaRow

oaDone:
	VZEROUPPER
	RET

// The elementwise kernels: one group of four entries per iteration,
// each lane the Go loop's one entry. The Go wrappers pass whole groups
// only and run the rest as Go.

// func reluAVX(x, y []float64)
//
// y = x where x > 0 (an ordered compare: false for NaN), else +0.
TEXT ·reluAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	SHLQ $3, CX
	XORQ DX, DX
	VXORPD Y15, Y15, Y15

reluLoop:
	CMPQ DX, CX
	JGE  reluDone
	VMOVUPD (SI)(DX*1), Y0
	VCMPPD  $0x1E, Y15, Y0, Y1   // GT_OQ: x > 0
	VANDPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ $32, DX
	JMP  reluLoop

reluDone:
	VZEROUPPER
	RET

// func reluBackwardAVX(y, dy []float64)
//
// dy = +0 where y <= 0; kept where y > 0 or y is NaN (an unordered
// not-less-or-equal compare).
TEXT ·reluBackwardAVX(SB), NOSPLIT, $0-48
	MOVQ y_base+0(FP), SI
	MOVQ dy_base+24(FP), DI
	MOVQ dy_len+32(FP), CX
	SHLQ $3, CX
	XORQ DX, DX
	VXORPD Y15, Y15, Y15

rbLoop:
	CMPQ DX, CX
	JGE  rbDone
	VMOVUPD (SI)(DX*1), Y0
	VCMPPD  $0x16, Y15, Y0, Y1   // NLE_UQ: !(y <= 0)
	VANDPD  (DI)(DX*1), Y1, Y1
	VMOVUPD Y1, (DI)(DX*1)
	ADDQ $32, DX
	JMP  rbLoop

rbDone:
	VZEROUPPER
	RET

// func reduceZeroAVX(dst []float64, srcs [][]float64)
//
// dst += srcs[0], then srcs[1], …, each src cleared to +0: per block
// of dst (16 entries, then 4, then 1) held in registers while every
// src adds into it in slice order, so each entry sums as the slot-by-
// slot Go loop sums it.
TEXT ·reduceZeroAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), R8  // R8 = the first slice header of srcs
	MOVQ srcs_len+32(FP), R9
	SHLQ $3, CX                // CX = bytes of dst
	XORQ DX, DX                // DX = the block's offset
	VXORPD Y15, Y15, Y15

rzBlock16:
	LEAQ 128(DX), AX
	CMPQ AX, CX
	JGT  rzBlock4
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	MOVQ R8, R10
	MOVQ R9, R11

rzSlot16:
	TESTQ R11, R11
	JZ    rzStore16
	MOVQ  (R10), SI            // the src's base
	VADDPD  (SI)(DX*1), Y0, Y0
	VADDPD  32(SI)(DX*1), Y1, Y1
	VADDPD  64(SI)(DX*1), Y2, Y2
	VADDPD  96(SI)(DX*1), Y3, Y3
	VMOVUPD Y15, (SI)(DX*1)
	VMOVUPD Y15, 32(SI)(DX*1)
	VMOVUPD Y15, 64(SI)(DX*1)
	VMOVUPD Y15, 96(SI)(DX*1)
	ADDQ $24, R10
	DECQ R11
	JMP  rzSlot16

rzStore16:
	VMOVUPD Y0, (DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	MOVQ AX, DX
	JMP  rzBlock16

rzBlock4:
	LEAQ 32(DX), AX
	CMPQ AX, CX
	JGT  rzBlock1
	VMOVUPD (DI)(DX*1), Y0
	MOVQ R8, R10
	MOVQ R9, R11

rzSlot4:
	TESTQ R11, R11
	JZ    rzStore4
	MOVQ  (R10), SI
	VADDPD  (SI)(DX*1), Y0, Y0
	VMOVUPD Y15, (SI)(DX*1)
	ADDQ $24, R10
	DECQ R11
	JMP  rzSlot4

rzStore4:
	VMOVUPD Y0, (DI)(DX*1)
	MOVQ AX, DX
	JMP  rzBlock4

rzBlock1:
	CMPQ DX, CX
	JGE  rzDone
	VMOVSD (DI)(DX*1), X0
	MOVQ R8, R10
	MOVQ R9, R11

rzSlot1:
	TESTQ R11, R11
	JZ    rzStore1
	MOVQ  (R10), SI
	VADDSD (SI)(DX*1), X0, X0
	VMOVSD X15, (SI)(DX*1)
	ADDQ $24, R10
	DECQ R11
	JMP  rzSlot1

rzStore1:
	VMOVSD X0, (DI)(DX*1)
	ADDQ $8, DX
	JMP  rzBlock1

rzDone:
	VZEROUPPER
	RET

// func adamUpdateAVX(w, g, m, v []float64, c *adamCoef)
//
// adamUpdateGo's update, its operations in the same order: products,
// sums, quotients and the square root each rounded on its own.
TEXT ·adamUpdateAVX(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX
	VBROADCASTSD 0(AX), Y7       // scale
	VBROADCASTSD 8(AX), Y8       // β1
	VBROADCASTSD 16(AX), Y9      // 1−β1
	VBROADCASTSD 24(AX), Y10     // β2
	VBROADCASTSD 32(AX), Y11     // 1−β2
	VBROADCASTSD 40(AX), Y12     // c1
	VBROADCASTSD 48(AX), Y13     // c2
	VBROADCASTSD 56(AX), Y14     // lr
	VBROADCASTSD 64(AX), Y15     // ε
	VXORPD Y6, Y6, Y6
	SHLQ $3, CX
	XORQ DX, DX

adLoop:
	CMPQ DX, CX
	JGE  adDone
	VMOVUPD (SI)(DX*1), Y0
	VMULPD  Y7, Y0, Y0           // g = G·scale
	VMULPD  (R8)(DX*1), Y8, Y1   // β1·m
	VMULPD  Y0, Y9, Y2           // (1−β1)·g
	VADDPD  Y2, Y1, Y1           // m
	VMOVUPD Y1, (R8)(DX*1)
	VMULPD  (R9)(DX*1), Y10, Y2  // β2·v
	VMULPD  Y0, Y11, Y3          // (1−β2)·g
	VMULPD  Y0, Y3, Y3           // ·g
	VADDPD  Y3, Y2, Y2           // v
	VMOVUPD Y2, (R9)(DX*1)
	VDIVPD  Y12, Y1, Y1          // m/c1
	VDIVPD  Y13, Y2, Y2          // v/c2
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2          // √(v/c2) + ε
	VMULPD  Y1, Y14, Y1          // lr·(m/c1)
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI)(DX*1), Y3
	VSUBPD  Y1, Y3, Y3           // W − step
	VMOVUPD Y3, (DI)(DX*1)
	VMOVUPD Y6, (SI)(DX*1)       // G = +0
	ADDQ $32, DX
	JMP  adLoop

adDone:
	VZEROUPPER
	RET

// func finiteAVX(x []float64) bool
//
// x − x is +0 for a finite x and NaN for ±Inf or NaN; OR-ing every
// difference leaves a zero register only if every x was finite.
TEXT ·finiteAVX(SB), NOSPLIT, $0-25
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHLQ $3, CX
	XORQ DX, DX
	VXORPD Y1, Y1, Y1

fiLoop:
	CMPQ DX, CX
	JGE  fiFold
	VMOVUPD (SI)(DX*1), Y0
	VSUBPD  Y0, Y0, Y0
	VORPD   Y0, Y1, Y1
	ADDQ $32, DX
	JMP  fiLoop

fiFold:
	VEXTRACTF128 $1, Y1, X2
	VORPD        X2, X1, X1
	VPSHUFD      $0x4E, X1, X2     // swap the two lanes
	VORPD        X2, X1, X1
	VMOVQ        X1, AX
	TESTQ        AX, AX
	SETEQ        ret+24(FP)
	VZEROUPPER
	RET
