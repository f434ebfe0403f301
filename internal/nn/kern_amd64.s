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
