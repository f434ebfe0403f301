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
//   - matTVecAdd, matTVecAddRows and outerAddRows skip the rows whose
//     dy is ±0 (the tile kernel below, without a branch).
//
// expAVX, sigmoidAVX, tanhAVX, logAVX and log1pAVX, at the end, are
// math.Exp, 1/(1+math.Exp(−x)), math.Tanh, math.Log and math.Log1p four
// lanes at a time. The Go wrappers in kern_amd64.go have checked every
// length.

// HSUM leaves (s0+s1)+(s2+s3) of the lanes of Y in the low lane of X
// (X is Y's low half), using T as scratch.
#define HSUM(Y, X, T) \
	VEXTRACTF128 $1, Y, T; \
	VHADDPD      T, X, X;  \
	VHADDPD      X, X, X

// FOLD4 folds four accumulators at once: A becomes the vector of
// (s0+s1)+(s2+s3) of A, B, C and D, in that order, T1 and T2 scratch.
#define FOLD4(A, B, C, D, T1, T2) \
	VHADDPD    B, A, T1;         \
	VHADDPD    D, C, T2;         \
	VPERM2F128 $0x20, T2, T1, A; \
	VPERM2F128 $0x31, T2, T1, T1; \
	VADDPD     T1, A, A

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
// (Y0..Y3), sharing the loads of x, their sums folded into one vector
// (FOLD4) that takes the tail columns, the bias and the store four
// lanes at once; then one row at a time.
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
	FOLD4(Y0, Y1, Y2, Y3, Y5, Y6)  // Y0 = the four rows' sums

mvTail4:
	CMPQ DX, BX
	JGE  mvBias4
	VMOVSD  (R8)(DX*1), X5
	VMOVHPD (R9)(DX*1), X5, X5
	VMOVSD  (R10)(DX*1), X6
	VMOVHPD (R11)(DX*1), X6, X6
	VINSERTF128 $1, X6, Y5, Y5     // the column of the four rows
	VBROADCASTSD (SI)(DX*1), Y4
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, DX
	JMP  mvTail4

mvBias4:
	TESTQ R12, R12
	JZ    mvStore4
	VADDPD (R12), Y0, Y0
	ADDQ $32, R12

mvStore4:
	VMOVUPD Y0, (DI)
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

// func reduceZeroAVX(dst, src []float64)
//
// dst += src, then src = +0, sixteen entries a round; len(dst) is a
// multiple of 16.
TEXT ·reduceZeroAVX(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHLQ $3, CX
	XORQ DX, DX
	VXORPD Y15, Y15, Y15

rzLoop:
	CMPQ DX, CX
	JGE  rzDone
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	VADDPD  (SI)(DX*1), Y0, Y0
	VADDPD  32(SI)(DX*1), Y1, Y1
	VADDPD  64(SI)(DX*1), Y2, Y2
	VADDPD  96(SI)(DX*1), Y3, Y3
	VMOVUPD Y0, (DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	VMOVUPD Y15, (SI)(DX*1)
	VMOVUPD Y15, 32(SI)(DX*1)
	VMOVUPD Y15, 64(SI)(DX*1)
	VMOVUPD Y15, 96(SI)(DX*1)
	ADDQ $128, DX
	JMP  rzLoop

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

// func matVec4AVX(w []float64, rows, cols int, x, y0, y []float64)
//
// matVecGo over four input rows at once: x holds them end to end, cols
// apart, and y their outputs, rows apart. Two rows of W at a time, each
// with one accumulator per input row (Y0..Y7), so every load of W is
// shared by four dot products, folded (FOLD4) into two vectors that
// take the tail columns, the bias and the stores as pairs of adjacent
// outputs; then the last row of W on its own (Y0, Y2, Y4, Y6). Each dot
// product is summed as matVecGo sums it.
TEXT ·matVec4AVX(SB), NOSPLIT, $0-112
	MOVQ w_base+0(FP), R8      // R8 = the current row of W
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	MOVQ x_base+40(FP), SI
	MOVQ y0_base+64(FP), R12
	MOVQ y_base+88(FP), DI     // DI = the current column of y's row 0
	MOVQ CX, R13
	SHLQ $3, R13               // R13 = bytes per row of y
	SHLQ $3, BX                // BX = bytes per row of W and of x
	MOVQ BX, AX
	ANDQ $-32, AX              // AX = bytes the 4-wide loop covers

m4Pair:
	CMPQ CX, $2
	JLT  m4One
	LEAQ (R8)(BX*1), R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ DX, DX

m4PairLanes:
	CMPQ DX, AX
	JGE  m4PairFold
	VMOVUPD (R8)(DX*1), Y8
	VMOVUPD (R9)(DX*1), Y9
	LEAQ (SI)(DX*1), R10       // x row 0 (and row 1 at +BX)
	LEAQ (R10)(BX*2), R11      // x row 2 (and row 3 at +BX)
	VMOVUPD (R10), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y1, Y1
	VMOVUPD (R10)(BX*1), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y3, Y3
	VMOVUPD (R11), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y4, Y4
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y5, Y5
	VMOVUPD (R11)(BX*1), Y10
	VMULPD  Y8, Y10, Y11
	VADDPD  Y11, Y6, Y6
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y7, Y7
	ADDQ $32, DX
	JMP  m4PairLanes

m4PairFold:
	FOLD4(Y0, Y1, Y2, Y3, Y8, Y9)  // Y0 = y0[r], y0[r+1], y1[r], y1[r+1]
	FOLD4(Y4, Y5, Y6, Y7, Y8, Y9)  // Y4 = y2[r], y2[r+1], y3[r], y3[r+1]

m4PairTail:
	CMPQ DX, BX
	JGE  m4PairBias
	VMOVSD  (R8)(DX*1), X8
	VMOVHPD (R9)(DX*1), X8, X8
	VINSERTF128 $1, X8, Y8, Y8     // w_r[c], w_r+1[c], twice
	LEAQ (SI)(DX*1), R10
	LEAQ (R10)(BX*2), R11
	VMOVDDUP (R10), X9
	VMOVDDUP (R10)(BX*1), X10
	VINSERTF128 $1, X10, Y9, Y9    // x0[c], x0[c], x1[c], x1[c]
	VMULPD Y9, Y8, Y9
	VADDPD Y9, Y0, Y0
	VMOVDDUP (R11), X9
	VMOVDDUP (R11)(BX*1), X10
	VINSERTF128 $1, X10, Y9, Y9    // x2[c], x2[c], x3[c], x3[c]
	VMULPD Y9, Y8, Y9
	VADDPD Y9, Y4, Y4
	ADDQ $8, DX
	JMP  m4PairTail

m4PairBias:
	TESTQ R12, R12
	JZ    m4PairStore
	VBROADCASTF128 (R12), Y8       // y0[r], y0[r+1], twice
	VADDPD Y8, Y0, Y0
	VADDPD Y8, Y4, Y4
	ADDQ $16, R12

m4PairStore:
	LEAQ (DI)(R13*2), R11
	VMOVUPD X0, (DI)
	VEXTRACTF128 $1, Y0, (DI)(R13*1)
	VMOVUPD X4, (R11)
	VEXTRACTF128 $1, Y4, (R11)(R13*1)
	ADDQ $16, DI
	LEAQ (R9)(BX*1), R8
	SUBQ $2, CX
	JMP  m4Pair

m4One:
	TESTQ CX, CX
	JZ    m4Done
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	XORQ DX, DX

m4OneLanes:
	CMPQ DX, AX
	JGE  m4OneFold
	VMOVUPD (R8)(DX*1), Y8
	LEAQ (SI)(DX*1), R10
	LEAQ (R10)(BX*2), R11
	VMULPD  (R10), Y8, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  (R10)(BX*1), Y8, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  (R11), Y8, Y11
	VADDPD  Y11, Y4, Y4
	VMULPD  (R11)(BX*1), Y8, Y11
	VADDPD  Y11, Y6, Y6
	ADDQ $32, DX
	JMP  m4OneLanes

m4OneFold:
	HSUM(Y0, X0, X8)
	HSUM(Y2, X2, X10)
	HSUM(Y4, X4, X12)
	HSUM(Y6, X6, X14)

m4OneTail:
	CMPQ DX, BX
	JGE  m4OneBias
	VMOVSD (R8)(DX*1), X8
	LEAQ (SI)(DX*1), R10
	LEAQ (R10)(BX*2), R11
	VMULSD (R10), X8, X11
	VADDSD X11, X0, X0
	VMULSD (R10)(BX*1), X8, X11
	VADDSD X11, X2, X2
	VMULSD (R11), X8, X11
	VADDSD X11, X4, X4
	VMULSD (R11)(BX*1), X8, X11
	VADDSD X11, X6, X6
	ADDQ $8, DX
	JMP  m4OneTail

m4OneBias:
	TESTQ R12, R12
	JZ    m4OneStore
	VMOVSD (R12), X8
	VADDSD X8, X0, X0
	VADDSD X8, X2, X2
	VADDSD X8, X4, X4
	VADDSD X8, X6, X6

m4OneStore:
	LEAQ (DI)(R13*2), R11
	VMOVSD X0, (DI)
	VMOVSD X2, (DI)(R13*1)
	VMOVSD X4, (R11)
	VMOVSD X6, (R11)(R13*1)

m4Done:
	VZEROUPPER
	RET

// func tilesAVX(acc []float64, rows, cols int, d []float64, dStart, dRow, dStep int, v []float64, vStart, vStep, pairs int)
//
// The tile kernel behind matTVecAdd, matTVecAddRows, outerAddRows and
// addRows. For each row r of acc (rows of cols entries, end to end), in
// order, and each pair t from 0 to pairs−1, in order:
//
//	acc_r += d[dStart + r·dRow + t·dStep] · v[vStart + t·vStep :][:cols]
//
// (steps may be negative). A tile of acc_r — up to 24 entries in
// Y0..Y5, or its last 1 to 3 in X0..X2 — stays in registers while every
// pair adds into it, so each entry sums in pair order. A pair whose d
// is ±0 is skipped without a branch: with m = (d is not ±0), the lanes
// of (d | −0·¬m)·(v & m) are d·v where m holds and −0 where it does
// not, and a + (−0) is a, bit for bit. Y6 holds d, Y7 m, Y15 −0 in
// every lane, Y14 is scratch. A tile of six whole registers, or of
// four, runs without tests; another tests AX, its bytes, before each
// register.
//
// Registers: R8 the row of acc, BX its bytes, DX the tile's first
// byte, DI the row's d of pair 0 (dRow entries on from the last row's),
// R13 the bytes from one pair's d to the next's, R10 pair 0's v, R12 the bytes from one pair's v to the
// next's; R11, SI, R9 and CX walk the pairs and the tile.
DATA negzero<>+0(SB)/8, $0x8000000000000000
GLOBL negzero<>(SB), RODATA|NOPTR, $8

// TILE_D loads the pair's d from (P) into Y6, its mask into Y7 (an
// unordered not-equal compare with −0: NaN counts as not ±0), and makes
// Y6 −0 where d is ±0; TILE_D_SCALAR does it in the low lane.
#define TILE_D(P) \
	VBROADCASTSD (P), Y6;      \
	VCMPPD $0x04, Y15, Y6, Y7; \
	VANDNPD Y15, Y7, Y14;      \
	VORPD Y14, Y6, Y6

#define TILE_D_SCALAR(P) \
	VMOVSD (P), X6;            \
	VCMPSD $0x04, X15, X6, X7; \
	VANDNPD X15, X7, X14;      \
	VORPD X14, X6, X6

// TILE_ADD adds the pair's d·v, v at P, into the tile's register ACC
// at byte off; TILE_ADD_SCALAR adds one entry.
#define TILE_ADD(P, off, ACC) \
	VANDPD off(P), Y7, Y14; \
	VMULPD Y14, Y6, Y14;    \
	VADDPD Y14, ACC, ACC

#define TILE_ADD_SCALAR(P, off, ACC) \
	VMOVSD off(P), X14;  \
	VANDPD X14, X7, X14; \
	VMULSD X14, X6, X14; \
	VADDSD X14, ACC, ACC

#define TILE_PAIR(D, V) \
	TILE_D(D);            \
	TILE_ADD(V, 0, Y0);   \
	TILE_ADD(V, 32, Y1);  \
	TILE_ADD(V, 64, Y2);  \
	TILE_ADD(V, 96, Y3);  \
	TILE_ADD(V, 128, Y4); \
	TILE_ADD(V, 160, Y5)

#define TILE_LOAD(P) \
	VMOVUPD 0(P), Y0;   \
	VMOVUPD 32(P), Y1;  \
	VMOVUPD 64(P), Y2;  \
	VMOVUPD 96(P), Y3;  \
	VMOVUPD 128(P), Y4; \
	VMOVUPD 160(P), Y5

#define TILE_STORE(P) \
	VMOVUPD Y0, 0(P);   \
	VMOVUPD Y1, 32(P);  \
	VMOVUPD Y2, 64(P);  \
	VMOVUPD Y3, 96(P);  \
	VMOVUPD Y4, 128(P); \
	VMOVUPD Y5, 160(P)

TEXT ·tilesAVX(SB), NOSPLIT, $0-136
	MOVQ acc_base+0(FP), R8
	MOVQ cols+32(FP), BX
	SHLQ $3, BX
	MOVQ d_base+40(FP), DI
	MOVQ dStart+64(FP), AX
	LEAQ (DI)(AX*8), DI
	MOVQ dStep+80(FP), R13
	SHLQ $3, R13
	MOVQ v_base+88(FP), R10
	MOVQ vStart+112(FP), AX
	LEAQ (R10)(AX*8), R10
	MOVQ vStep+120(FP), R12
	SHLQ $3, R12
	VBROADCASTSD negzero<>(SB), Y15

tRow:
	XORQ DX, DX

tTile:
	MOVQ BX, AX
	SUBQ DX, AX                // AX = bytes of the row left
	CMPQ AX, $32
	JLT  tScalar
	MOVQ DI, R11               // R11 = the pair's d
	LEAQ (R10)(DX*1), SI       // SI = the pair's tile of v
	MOVQ pairs+128(FP), R9     // R9 = pairs left
	CMPQ AX, $192
	JLT  tPart
	MOVQ $192, AX
	LEAQ (R8)(DX*1), CX
	TILE_LOAD(CX)

tWhole:
	TILE_PAIR(R11, SI)
	ADDQ R13, R11
	ADDQ R12, SI
	DECQ R9
	JNZ  tWhole
	TILE_STORE(CX)
	ADDQ AX, DX
	JMP  tTile

tPart: // one to five whole registers, then the scalar tail
	ANDQ $-32, AX              // AX = bytes of the whole registers
	LEAQ (R8)(DX*1), CX
	CMPQ AX, $128
	JNE  tPartLoad
	VMOVUPD 0(CX), Y0
	VMOVUPD 32(CX), Y1
	VMOVUPD 64(CX), Y2
	VMOVUPD 96(CX), Y3

tQuad: // four whole registers, without the tests
	TILE_D(R11)
	TILE_ADD(SI, 0, Y0)
	TILE_ADD(SI, 32, Y1)
	TILE_ADD(SI, 64, Y2)
	TILE_ADD(SI, 96, Y3)
	ADDQ R13, R11
	ADDQ R12, SI
	DECQ R9
	JNZ  tQuad
	VMOVUPD Y0, 0(CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, 64(CX)
	VMOVUPD Y3, 96(CX)
	ADDQ AX, DX
	JMP  tScalar

tPartLoad:
	VMOVUPD 0(CX), Y0
	CMPQ AX, $64
	JLT  tPartPairs
	VMOVUPD 32(CX), Y1
	CMPQ AX, $96
	JLT  tPartPairs
	VMOVUPD 64(CX), Y2
	CMPQ AX, $128
	JLT  tPartPairs
	VMOVUPD 96(CX), Y3
	CMPQ AX, $160
	JLT  tPartPairs
	VMOVUPD 128(CX), Y4

tPartPairs:
	TILE_D(R11)
	TILE_ADD(SI, 0, Y0)
	CMPQ AX, $64
	JLT  tPartAdded
	TILE_ADD(SI, 32, Y1)
	CMPQ AX, $96
	JLT  tPartAdded
	TILE_ADD(SI, 64, Y2)
	CMPQ AX, $128
	JLT  tPartAdded
	TILE_ADD(SI, 96, Y3)
	CMPQ AX, $160
	JLT  tPartAdded
	TILE_ADD(SI, 128, Y4)

tPartAdded:
	ADDQ R13, R11
	ADDQ R12, SI
	DECQ R9
	JNZ  tPartPairs
	VMOVUPD Y0, 0(CX)
	CMPQ AX, $64
	JLT  tPartStored
	VMOVUPD Y1, 32(CX)
	CMPQ AX, $96
	JLT  tPartStored
	VMOVUPD Y2, 64(CX)
	CMPQ AX, $128
	JLT  tPartStored
	VMOVUPD Y3, 96(CX)
	CMPQ AX, $160
	JLT  tPartStored
	VMOVUPD Y4, 128(CX)

tPartStored:
	ADDQ AX, DX

tScalar: // the last 0 to 3 entries, one lane each
	MOVQ BX, AX
	SUBQ DX, AX                // AX = bytes left: 0, 8, 16 or 24
	JZ   tNext
	MOVQ DI, R11
	LEAQ (R10)(DX*1), SI
	MOVQ pairs+128(FP), R9
	LEAQ (R8)(DX*1), CX
	VMOVSD 0(CX), X0
	CMPQ AX, $16
	JLT  tScalarPairs
	VMOVSD 8(CX), X1
	CMPQ AX, $24
	JLT  tScalarPairs
	VMOVSD 16(CX), X2

tScalarPairs:
	TILE_D_SCALAR(R11)
	TILE_ADD_SCALAR(SI, 0, X0)
	CMPQ AX, $16
	JLT  tScalarAdded
	TILE_ADD_SCALAR(SI, 8, X1)
	CMPQ AX, $24
	JLT  tScalarAdded
	TILE_ADD_SCALAR(SI, 16, X2)

tScalarAdded:
	ADDQ R13, R11
	ADDQ R12, SI
	DECQ R9
	JNZ  tScalarPairs
	VMOVSD X0, 0(CX)
	CMPQ AX, $16
	JLT  tScalarStored
	VMOVSD X1, 8(CX)
	CMPQ AX, $24
	JLT  tScalarStored
	VMOVSD X2, 16(CX)

tScalarStored:

tNext:
	ADDQ BX, R8
	MOVQ dRow+72(FP), AX
	LEAQ (DI)(AX*8), DI
	DECQ rows+24(FP)
	JNZ  tRow
	VZEROUPPER
	RET

// expAVX is math.Exp four lanes at a time: the steps of math's
// archExp (exp_amd64.s, after Shibata's SIMD method) with each lane's
// operations rounded as the scalar code rounds them — the reduction
// x − e·ln2 in two parts, the Taylor chain on x/16, four squarings
// (x·(x+2) undoes each halving), then the scale by 2^e built in the
// exponent bits. fma picks archExp's fused form (its useFMA), whose
// reductions and Taylor steps are single VFMADD/VFNMADD roundings.
// sigmoidAVX and tanhAVX run the same steps (the EXP macros).
DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920  // log2(e)
DATA expc<>+8(SB)/8, $0.69314718055966295651160180568695068359375  // ln2, upper part
DATA expc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12  // ln2, lower part
DATA expc<>+24(SB)/8, $0.0625
DATA expc<>+32(SB)/8, $2.4801587301587301587e-5  // 1/8!
DATA expc<>+40(SB)/8, $1.9841269841269841270e-4  // 1/7!
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3  // 1/6!
DATA expc<>+56(SB)/8, $8.3333333333333333333e-3  // 1/5!
DATA expc<>+64(SB)/8, $4.1666666666666666667e-2  // 1/4!
DATA expc<>+72(SB)/8, $1.6666666666666666667e-1  // 1/3!
DATA expc<>+80(SB)/8, $0.5
DATA expc<>+88(SB)/8, $1.0
DATA expc<>+96(SB)/8, $2.0
DATA expc<>+104(SB)/8, $-708.0  // expLo
DATA expc<>+112(SB)/8, $709.0   // expHi
DATA expc<>+120(SB)/8, $0x8000000000000000  // −0: the sign bit
GLOBL expc<>(SB), RODATA|NOPTR, $128

// The EXP macros set Y0 = exp(Y0) for arguments in [expLo, expHi]: the
// reduction EXP_E (e = round(x·log2 e), in Y1 and as int32 lanes in X4),
// then the plain (EXP_PLAIN) or fused (EXP_FMA) reduction, Taylor chain
// and squarings, then EXP_SCALE. They use Y1..Y6 as scratch and read
// the constants EXP_CONSTS pins: Y13 log2(e), Y12 and Y11 ln2's upper
// and lower parts, Y10 1/16, Y9 1, Y8 2, and the exponent bias 0x3FF in
// X7's four int32 lanes. Outside the range a lane's result is garbage,
// never a fault.
#define EXP_CONSTS \
	VBROADCASTSD expc<>+0(SB), Y13;  \
	VBROADCASTSD expc<>+8(SB), Y12;  \
	VBROADCASTSD expc<>+16(SB), Y11; \
	VBROADCASTSD expc<>+24(SB), Y10; \
	VBROADCASTSD expc<>+88(SB), Y9;  \
	VBROADCASTSD expc<>+96(SB), Y8;  \
	MOVL $0x3FF, AX;                 \
	VMOVD AX, X7;                    \
	VPSHUFD $0, X7, X7

#define EXP_E \
	VMULPD Y13, Y0, Y1; \
	VCVTPD2DQY Y1, X4;  \
	VCVTDQ2PD X4, Y1

#define EXP_TAYLOR(off) \
	VMULPD Y0, Y3, Y3;               \
	VBROADCASTSD expc<>+off(SB), Y6; \
	VADDPD Y6, Y3, Y3

#define EXP_SQUARE \
	VADDPD Y8, Y0, Y3; \
	VMULPD Y3, Y0, Y0

#define EXP_PLAIN \
	EXP_E;                          \
	VMULPD Y12, Y1, Y2;             \
	VSUBPD Y2, Y0, Y0;              \
	VMULPD Y11, Y1, Y2;             \
	VSUBPD Y2, Y0, Y0;              \
	VMULPD Y10, Y0, Y0;             \
	VBROADCASTSD expc<>+32(SB), Y3; \
	EXP_TAYLOR(40);                 \
	EXP_TAYLOR(48);                 \
	EXP_TAYLOR(56);                 \
	EXP_TAYLOR(64);                 \
	EXP_TAYLOR(72);                 \
	EXP_TAYLOR(80);                 \
	VMULPD Y0, Y3, Y3;              \
	VADDPD Y9, Y3, Y3;              \
	VMULPD Y3, Y0, Y0;              \
	EXP_SQUARE;                     \
	EXP_SQUARE;                     \
	EXP_SQUARE;                     \
	EXP_SQUARE;                     \
	VADDPD Y9, Y0, Y0

#define EXP_FTAYLOR(off) \
	VBROADCASTSD expc<>+off(SB), Y6; \
	VFMADD213PD Y6, Y0, Y3

#define EXP_FMA \
	EXP_E;                          \
	VFNMADD231PD Y12, Y1, Y0;       \
	VFNMADD231PD Y11, Y1, Y0;       \
	VMULPD Y10, Y0, Y0;             \
	VBROADCASTSD expc<>+32(SB), Y3; \
	EXP_FTAYLOR(40);                \
	EXP_FTAYLOR(48);                \
	EXP_FTAYLOR(56);                \
	EXP_FTAYLOR(64);                \
	EXP_FTAYLOR(72);                \
	EXP_FTAYLOR(80);                \
	VFMADD213PD Y9, Y0, Y3;         \
	VMULPD Y3, Y0, Y0;              \
	EXP_SQUARE;                     \
	EXP_SQUARE;                     \
	EXP_SQUARE;                     \
	VADDPD Y8, Y0, Y3;              \
	VFMADD213PD Y9, Y3, Y0

#define EXP_SCALE \
	VPADDD X7, X4, X4;          \
	VPMOVZXDQ X4, X5;           \
	VPSHUFD $0x0E, X4, X4;      \
	VPMOVZXDQ X4, X4;           \
	VPSLLQ $52, X5, X5;         \
	VPSLLQ $52, X4, X4;         \
	VINSERTF128 $1, X4, Y5, Y5; \
	VMULPD Y5, Y0, Y0

// EXP_RANGE sets AX's low four bits to which lanes of Y0 lie in
// [expLo, expHi] (Y15, Y14): an ordered compare, so NaN is outside.
#define EXP_RANGE \
	VCMPPD $0x1D, Y15, Y0, Y1; \
	VCMPPD $0x12, Y14, Y0, Y2; \
	VANDPD Y2, Y1, Y1;         \
	VMOVMSKPD Y1, AX

// func expAVX(x, y []float64, fma bool) int
//
// y = exp(x) for each whole group of four entries, up to the first
// group with an entry outside [expLo, expHi] (NaN included); returns
// the entries written. Inside that range e+1023 stays in [2, 2046], so
// archExp's ldexp step is one multiplication by a normal 2^e.
TEXT ·expAVX(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVBQZX fma+48(FP), R8
	SHLQ $3, CX
	ANDQ $-32, CX              // CX = bytes of whole groups
	XORQ DX, DX
	VBROADCASTSD expc<>+104(SB), Y15
	VBROADCASTSD expc<>+112(SB), Y14
	EXP_CONSTS

exLoop:
	CMPQ DX, CX
	JGE  exDone
	VMOVUPD (SI)(DX*1), Y0
	EXP_RANGE
	CMPQ AX, $15
	JNE  exDone
	TESTQ R8, R8
	JNZ  exFMA
	EXP_PLAIN
	JMP  exScale

exFMA:
	EXP_FMA

exScale:
	EXP_SCALE
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ $32, DX
	JMP  exLoop

exDone:
	SHRQ $3, DX
	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET

// func sigmoidAVX(x, y []float64, fma bool) int
//
// y = 1/(1+exp(−x)) for each whole group of four entries, up to the
// first group with an −x outside [expLo, expHi] (NaN included); returns
// the entries written. −x flips the sign bit, as Go's negation does.
TEXT ·sigmoidAVX(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVBQZX fma+48(FP), R8
	SHLQ $3, CX
	ANDQ $-32, CX              // CX = bytes of whole groups
	XORQ DX, DX
	VBROADCASTSD expc<>+104(SB), Y15
	VBROADCASTSD expc<>+112(SB), Y14
	EXP_CONSTS

sgLoop:
	CMPQ DX, CX
	JGE  sgDone
	VBROADCASTSD expc<>+120(SB), Y1
	VXORPD (SI)(DX*1), Y1, Y0  // −x
	EXP_RANGE
	CMPQ AX, $15
	JNE  sgDone
	TESTQ R8, R8
	JNZ  sgFMA
	EXP_PLAIN
	JMP  sgScale

sgFMA:
	EXP_FMA

sgScale:
	EXP_SCALE
	VADDPD Y9, Y0, Y0          // 1 + e
	VDIVPD Y0, Y9, Y0          // 1/(1 + e)
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ $32, DX
	JMP  sgLoop

sgDone:
	SHRQ $3, DX
	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET

// tanhAVX is math.Tanh four lanes at a time: math's tanh (tanh.go,
// Cephes) on every lane, each branch's operations rounded as the scalar
// code rounds them, and the branch picked per lane by blends. With
// z = |x|: 1 − 2/(exp(2z)+1), exp by the EXP macros, where z ≥ 0.625,
// and 1 where z > MAXLOG/2, both with x's sign; the rational
// x + x·s·P(s)/Q(s), s = x·x, where z < 0.625; and x itself where x is
// ±0.
DATA tanhc<>+0(SB)/8, $-9.64399179425052238628e-1   // P0
DATA tanhc<>+8(SB)/8, $-9.92877231001918586564e1    // P1
DATA tanhc<>+16(SB)/8, $-1.61468768441708447952e3   // P2
DATA tanhc<>+24(SB)/8, $1.12811678491632931402e2    // Q0
DATA tanhc<>+32(SB)/8, $2.23548839060100448583e3    // Q1
DATA tanhc<>+40(SB)/8, $4.84406305325125486048e3    // Q2
DATA tanhc<>+48(SB)/8, $0.625
DATA tanhc<>+56(SB)/8, $0x404601e678fc457b          // MAXLOG/2, log(2¹²⁷)/2
DATA tanhc<>+64(SB)/8, $0x7FFFFFFFFFFFFFFF          // all but the sign bit
GLOBL tanhc<>(SB), RODATA|NOPTR, $72

// func tanhAVX(x, y []float64, fma bool)
//
// y = tanh(x) for each whole group of four entries. fma picks the fused
// form of the exp steps, as math.Exp does. Y14 holds x, Y15 z. A group
// with no z ≥ 0.625 skips the exp branch, whose lanes it would not
// pick.
TEXT ·tanhAVX(SB), NOSPLIT, $0-49
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVBQZX fma+48(FP), R8
	SHLQ $3, CX
	ANDQ $-32, CX              // CX = bytes of whole groups
	XORQ DX, DX
	EXP_CONSTS

thLoop:
	CMPQ DX, CX
	JGE  thDone
	VMOVUPD (SI)(DX*1), Y14    // x
	VBROADCASTSD tanhc<>+64(SB), Y1
	VANDPD Y1, Y14, Y15        // z = |x|
	VBROADCASTSD tanhc<>+48(SB), Y6
	VCMPPD $0x1D, Y6, Y15, Y1  // GE_OQ: z >= 0.625
	VMOVMSKPD Y1, AX
	TESTQ AX, AX
	JZ   thRational            // no lane takes the exp branch
	// Y0 = 1 − 2/(exp(2z)+1), or 1 where z > MAXLOG/2; then x's sign
	VADDPD Y15, Y15, Y0        // 2z
	TESTQ R8, R8
	JNZ  thFMA
	EXP_PLAIN
	JMP  thScale

thFMA:
	EXP_FMA

thScale:
	EXP_SCALE
	VADDPD Y9, Y0, Y0
	VDIVPD Y0, Y8, Y1
	VSUBPD Y1, Y9, Y0
	VBROADCASTSD tanhc<>+56(SB), Y6
	VCMPPD $0x1E, Y6, Y15, Y1  // GT_OQ: z > MAXLOG/2
	VBLENDVPD Y1, Y9, Y0, Y0
	VBROADCASTSD expc<>+120(SB), Y6
	VANDPD Y6, Y14, Y6
	VORPD Y6, Y0, Y0

thRational:
	// Y1 = x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2)
	VMULPD Y14, Y14, Y1        // s
	VBROADCASTSD tanhc<>+0(SB), Y2
	VMULPD Y1, Y2, Y2
	VBROADCASTSD tanhc<>+8(SB), Y6
	VADDPD Y6, Y2, Y2
	VMULPD Y1, Y2, Y2
	VBROADCASTSD tanhc<>+16(SB), Y6
	VADDPD Y6, Y2, Y2          // P(s)
	VBROADCASTSD tanhc<>+24(SB), Y3
	VADDPD Y1, Y3, Y3
	VMULPD Y1, Y3, Y3
	VBROADCASTSD tanhc<>+32(SB), Y6
	VADDPD Y6, Y3, Y3
	VMULPD Y1, Y3, Y3
	VBROADCASTSD tanhc<>+40(SB), Y6
	VADDPD Y6, Y3, Y3          // Q(s)
	VMULPD Y14, Y1, Y1         // x·s
	VMULPD Y2, Y1, Y1
	VDIVPD Y3, Y1, Y1
	VADDPD Y1, Y14, Y1
	// z ≥ 0.625: Y0, else Y1; ±0: x
	VBROADCASTSD tanhc<>+48(SB), Y6
	VCMPPD $0x1D, Y6, Y15, Y2  // GE_OQ: z >= 0.625
	VBLENDVPD Y2, Y0, Y1, Y0
	VXORPD Y2, Y2, Y2
	VCMPPD $0x00, Y2, Y14, Y2  // EQ_OQ: x == 0
	VBLENDVPD Y2, Y14, Y0, Y0
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ $32, DX
	JMP  thLoop

thDone:
	VZEROUPPER
	RET

// logAVX is math.Log four lanes at a time: the steps of math's archLog
// (log_amd64.s, FreeBSD's e_log.c) with each lane's operations rounded
// as the scalar code rounds them — the split x = f1·2^k with f1 taken
// to [√2/2, √2), f = f1 − 1, s = f/(2+f), the two polynomials in s⁴,
// and the assembly k·ln2hi − ((hfsq − (s·(hfsq+R) + k·ln2lo)) − f).
DATA logc<>+0(SB)/8, $7.07106781186547524401e-01   // √2/2
DATA logc<>+8(SB)/8, $6.93147180369123816490e-01   // ln2, upper part
DATA logc<>+16(SB)/8, $1.90821492927058770002e-10  // ln2, lower part
DATA logc<>+24(SB)/8, $6.666666666666735130e-01    // L1
DATA logc<>+32(SB)/8, $3.999999999940941908e-01    // L2
DATA logc<>+40(SB)/8, $2.857142874366239149e-01    // L3
DATA logc<>+48(SB)/8, $2.222219843214978396e-01    // L4
DATA logc<>+56(SB)/8, $1.818357216161805012e-01    // L5
DATA logc<>+64(SB)/8, $1.531383769920937332e-01    // L6
DATA logc<>+72(SB)/8, $1.479819860511658591e-01    // L7
DATA logc<>+80(SB)/8, $0x000FFFFFFFFFFFFF          // the mantissa bits
DATA logc<>+88(SB)/8, $0.5
DATA logc<>+96(SB)/8, $1.0
DATA logc<>+104(SB)/8, $2.0
DATA logc<>+112(SB)/8, $0x0010000000000000         // logLo: the smallest normal
DATA logc<>+120(SB)/8, $0x7FEFFFFFFFFFFFFF         // logHi: the largest finite
GLOBL logc<>(SB), RODATA|NOPTR, $128

// func logAVX(x, y []float64) int
//
// y = log(x) for each whole group of four entries, up to the first
// group with an entry outside [logLo, logHi] (NaN included); returns
// the entries written. Inside that range x is positive, finite and
// normal, where archLog takes none of its special cases.
TEXT ·logAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	SHLQ $3, CX
	ANDQ $-32, CX              // CX = bytes of whole groups
	XORQ DX, DX
	VBROADCASTSD logc<>+0(SB), Y10
	VBROADCASTSD logc<>+80(SB), Y12
	VBROADCASTSD logc<>+88(SB), Y11
	VBROADCASTSD logc<>+96(SB), Y9
	VBROADCASTSD logc<>+104(SB), Y8
	VBROADCASTSD logc<>+112(SB), Y15
	VBROADCASTSD logc<>+120(SB), Y14
	MOVL $0x3FE, AX
	VMOVD AX, X13
	VPSHUFD $0, X13, X13       // X13 = the exponent bias, four int32 lanes

lgLoop:
	CMPQ DX, CX
	JGE  lgDone
	VMOVUPD (SI)(DX*1), Y0
	VCMPPD  $0x1D, Y15, Y0, Y1 // GE_OQ: x >= logLo
	VCMPPD  $0x12, Y14, Y0, Y2 // LE_OQ: x <= logHi
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPQ AX, $15
	JNE  lgDone

	// k = exponent − 0x3FE; f1 = the mantissa with exponent −1.
	VEXTRACTF128 $1, Y0, X3
	VPSRLQ $52, X0, X4
	VPSRLQ $52, X3, X3
	VSHUFPS $0x88, X3, X4, X4  // the four exponents, int32 lanes
	VPSUBD X13, X4, X4
	VCVTDQ2PD X4, Y1           // k
	VANDPD Y12, Y0, Y2
	VORPD  Y11, Y2, Y2         // f1
	// Where !(√2/2 < f1): k −= 1 and f1 ·= 2. Then f = f1 − 1.
	VCMPPD $0x05, Y2, Y10, Y3  // NLT_US
	VANDPD Y9, Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD Y9, Y3, Y3
	VMULPD Y3, Y2, Y2
	VSUBPD Y9, Y2, Y2          // f
	// s = f/(2+f), s2 = s·s, s4 = s2·s2
	VADDPD Y8, Y2, Y3
	VDIVPD Y3, Y2, Y3          // s
	VMULPD Y3, Y3, Y4          // s2
	VMULPD Y4, Y4, Y5          // s4
	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VBROADCASTSD logc<>+72(SB), Y6
	VMULPD Y5, Y6, Y6
	VBROADCASTSD logc<>+56(SB), Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y6, Y6
	VBROADCASTSD logc<>+40(SB), Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y6, Y6
	VBROADCASTSD logc<>+24(SB), Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y4, Y4          // t1
	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2
	VBROADCASTSD logc<>+64(SB), Y6
	VMULPD Y5, Y6, Y6
	VBROADCASTSD logc<>+48(SB), Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y5, Y6, Y6
	VBROADCASTSD logc<>+32(SB), Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y5, Y5          // t2
	VADDPD Y5, Y4, Y4          // R
	// hfsq = 0.5·f·f; k·ln2hi − ((hfsq − (s·(hfsq+R) + k·ln2lo)) − f)
	VMULPD Y11, Y2, Y5
	VMULPD Y2, Y5, Y5          // hfsq
	VADDPD Y5, Y4, Y4
	VMULPD Y4, Y3, Y3
	VBROADCASTSD logc<>+16(SB), Y6
	VMULPD Y1, Y6, Y6
	VADDPD Y6, Y3, Y3
	VSUBPD Y3, Y5, Y5
	VSUBPD Y2, Y5, Y5
	VBROADCASTSD logc<>+8(SB), Y6
	VMULPD Y6, Y1, Y1
	VSUBPD Y5, Y1, Y1
	VMOVUPD Y1, (DI)(DX*1)
	ADDQ $32, DX
	JMP  lgLoop

lgDone:
	SHRQ $3, DX
	MOVQ DX, ret+48(FP)
	VZEROUPPER
	RET

// log1pAVX is math.Log1p four lanes at a time: math's log1p (log1p.go,
// FreeBSD's s_log1p.c) on every lane, each operation rounded as the
// scalar code rounds it, its branches picked per lane by blends. Where
// √2/2−1 < x < √2−1, f = x and k = 0; elsewhere u = 1+x = 2^k·(1+f)
// with 1+f taken to [√2/2, √2) and c the rounding error of 1+x over u.
// Then, with s = f/(2+f) and R the polynomial in s² (logAVX's), the
// result is f − (hfsq − s·(hfsq+R)) where k = 0, else
// k·ln2hi − ((hfsq − (s·(hfsq+R) + (k·ln2lo + c))) − f); x − x·x/2 where
// |x| < 2⁻²⁹, and x where |x| < 2⁻⁵⁴. The scalar code's exact-power
// shortcut (f = 0, k ≠ 0) is the general formula's value there.
DATA log1pc<>+0(SB)/8, $-1.0                             // log1pLo
DATA log1pc<>+8(SB)/8, $0x4340000000000000               // log1pHi: 2⁵³
DATA log1pc<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF              // all but the sign bit
DATA log1pc<>+24(SB)/8, $0x3ff6a09e667f3bcd              // √2
DATA log1pc<>+32(SB)/8, $4.142135623730950488017e-01     // √2−1
DATA log1pc<>+40(SB)/8, $-2.928932188134524755992e-01    // √2/2−1
DATA log1pc<>+48(SB)/8, $0x3e20000000000000              // 2⁻²⁹
DATA log1pc<>+56(SB)/8, $0x3c90000000000000              // 2⁻⁵⁴
GLOBL log1pc<>(SB), RODATA|NOPTR, $64

// func log1pAVX(x, y []float64) int
//
// y = log1p(x) for each whole group of four entries, up to the first
// group with an entry outside (log1pLo, log1pHi) (NaN included); returns
// the entries written. The constants shared with log are logc's.
TEXT ·log1pAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	SHLQ $3, CX
	ANDQ $-32, CX              // CX = bytes of whole groups
	XORQ DX, DX
	VBROADCASTSD log1pc<>+0(SB), Y15
	VBROADCASTSD log1pc<>+8(SB), Y14
	VBROADCASTSD log1pc<>+16(SB), Y12
	VBROADCASTSD logc<>+96(SB), Y9
	MOVL $0x3FF, AX
	VMOVD AX, X13
	VPSHUFD $0, X13, X13       // X13 = the exponent bias, four int32 lanes

lpLoop:
	CMPQ DX, CX
	JGE  lpDone
	VMOVUPD (SI)(DX*1), Y0     // x
	VCMPPD  $0x1E, Y15, Y0, Y1 // GT_OQ: x > log1pLo
	VCMPPD  $0x11, Y14, Y0, Y2 // LT_OQ: x < log1pHi
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPQ AX, $15
	JNE  lpDone
	VANDPD Y12, Y0, Y1         // |x|

	// u = 1+x; c = (u ≥ 2 ? 1 − (u−x) : x − (u−1)) / u
	VADDPD Y9, Y0, Y2          // u
	VSUBPD Y0, Y2, Y3
	VSUBPD Y3, Y9, Y3          // 1 − (u−x)
	VSUBPD Y9, Y2, Y4
	VSUBPD Y4, Y0, Y4          // x − (u−1)
	VBROADCASTSD logc<>+104(SB), Y5
	VCMPPD $0x1D, Y5, Y2, Y5   // GE_OQ: u ≥ 2, k > 0
	VBLENDVPD Y5, Y3, Y4, Y3
	VDIVPD Y2, Y3, Y3          // c
	// k = u's exponent − 1023; 1+f = u's mantissa with exponent 0, halved
	// (and k += 1) where it is at least √2. Then f = (1+f) − 1.
	VEXTRACTF128 $1, Y2, X4
	VPSRLQ $52, X2, X5
	VPSRLQ $52, X4, X4
	VSHUFPS $0x88, X4, X5, X5  // the four exponents, int32 lanes
	VPSUBD X13, X5, X5
	VCVTDQ2PD X5, Y4           // k
	VBROADCASTSD logc<>+80(SB), Y5
	VANDPD Y5, Y2, Y2
	VORPD  Y9, Y2, Y2          // 1+f
	VBROADCASTSD log1pc<>+24(SB), Y5
	VCMPPD $0x1D, Y5, Y2, Y5   // GE_OQ: 1+f ≥ √2
	VANDPD Y9, Y5, Y6
	VADDPD Y6, Y4, Y4
	VBROADCASTSD logc<>+88(SB), Y6
	VMULPD Y6, Y2, Y6
	VBLENDVPD Y5, Y6, Y2, Y2
	VSUBPD Y9, Y2, Y2          // f
	// √2/2−1 < x < √2−1: f = x, k = 0
	VBROADCASTSD log1pc<>+32(SB), Y5
	VCMPPD $0x11, Y5, Y1, Y5   // LT_OQ: |x| < √2−1
	VBROADCASTSD log1pc<>+40(SB), Y6
	VCMPPD $0x1E, Y6, Y0, Y6   // GT_OQ: x > √2/2−1
	VANDPD Y6, Y5, Y5
	VBLENDVPD Y5, Y0, Y2, Y2
	VANDNPD Y4, Y5, Y4

	// hfsq = 0.5·f·f; s = f/(2+f); R = z·(L1 + z·(L2 + … z·L7)), z = s·s
	VBROADCASTSD logc<>+88(SB), Y6
	VMULPD Y6, Y2, Y6
	VMULPD Y2, Y6, Y6          // hfsq
	VBROADCASTSD logc<>+104(SB), Y7
	VADDPD Y7, Y2, Y7
	VDIVPD Y7, Y2, Y7          // s
	VMULPD Y7, Y7, Y8          // z
	VBROADCASTSD logc<>+72(SB), Y10
	VMULPD Y8, Y10, Y10
	VBROADCASTSD logc<>+64(SB), Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y8, Y10, Y10
	VBROADCASTSD logc<>+56(SB), Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y8, Y10, Y10
	VBROADCASTSD logc<>+48(SB), Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y8, Y10, Y10
	VBROADCASTSD logc<>+40(SB), Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y8, Y10, Y10
	VBROADCASTSD logc<>+32(SB), Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y8, Y10, Y10
	VBROADCASTSD logc<>+24(SB), Y11
	VADDPD Y11, Y10, Y10
	VMULPD Y10, Y8, Y10        // R
	VADDPD Y10, Y6, Y10
	VMULPD Y10, Y7, Y7         // s·(hfsq+R)
	// k = 0: f − (hfsq − s·(hfsq+R))
	VSUBPD Y7, Y6, Y10
	VSUBPD Y10, Y2, Y10
	// k ≠ 0: k·ln2hi − ((hfsq − (s·(hfsq+R) + (k·ln2lo + c))) − f)
	VBROADCASTSD logc<>+16(SB), Y11
	VMULPD Y11, Y4, Y11
	VADDPD Y3, Y11, Y11
	VADDPD Y11, Y7, Y7
	VSUBPD Y7, Y6, Y6
	VSUBPD Y2, Y6, Y6
	VBROADCASTSD logc<>+8(SB), Y11
	VMULPD Y11, Y4, Y11
	VSUBPD Y6, Y11, Y11
	VXORPD Y5, Y5, Y5
	VCMPPD $0x00, Y5, Y4, Y5   // EQ_OQ: k == 0
	VBLENDVPD Y5, Y10, Y11, Y11
	// |x| < 2⁻²⁹: x − x·x·0.5; |x| < 2⁻⁵⁴: x
	VMULPD Y0, Y0, Y5
	VBROADCASTSD logc<>+88(SB), Y6
	VMULPD Y6, Y5, Y5
	VSUBPD Y5, Y0, Y5
	VBROADCASTSD log1pc<>+48(SB), Y6
	VCMPPD $0x11, Y6, Y1, Y6   // LT_OQ: |x| < 2⁻²⁹
	VBLENDVPD Y6, Y5, Y11, Y11
	VBROADCASTSD log1pc<>+56(SB), Y6
	VCMPPD $0x11, Y6, Y1, Y6   // LT_OQ: |x| < 2⁻⁵⁴
	VBLENDVPD Y6, Y0, Y11, Y11
	VMOVUPD Y11, (DI)(DX*1)
	ADDQ $32, DX
	JMP  lpLoop

lpDone:
	SHRQ $3, DX
	MOVQ DX, ret+48(FP)
	VZEROUPPER
	RET
