#include "textflag.h"

// The AVX2 encoding of the radix-4 kernel (kernel.go): two complex128 to
// a YMM register, the same operations as the Go bodies in the same
// order, and no fused multiply-add, so every output is the Go body's
// bits. A column run of odd width ends in one 128-bit step of the same
// arithmetic on XMM registers.

// XOR masks: negIm flips the sign of the imaginary part of each complex,
// negRe that of the real part.
DATA negIm<>+0(SB)/8, $0
DATA negIm<>+8(SB)/8, $0x8000000000000000
DATA negIm<>+16(SB)/8, $0
DATA negIm<>+24(SB)/8, $0x8000000000000000
GLOBL negIm<>(SB), RODATA|NOPTR, $32

DATA negRe<>+0(SB)/8, $0x8000000000000000
DATA negRe<>+8(SB)/8, $0
DATA negRe<>+16(SB)/8, $0x8000000000000000
DATA negRe<>+24(SB)/8, $0
GLOBL negRe<>(SB), RODATA|NOPTR, $32

// NarrowLane's constants, one 32-bit word each, broadcast by narrowAVX2:
// the round-to-nearest bias, the tie-to-even bit and a NaN's quiet bit.
DATA laneBias<>+0(SB)/4, $0x7fff
GLOBL laneBias<>(SB), RODATA|NOPTR, $4
DATA laneOne<>+0(SB)/4, $1
GLOBL laneOne<>(SB), RODATA|NOPTR, $4
DATA laneQuiet<>+0(SB)/4, $0x40
GLOBL laneQuiet<>(SB), RODATA|NOPTR, $4

// FWD4 is the forward butterfly with twiddles 1: from x0..x3 in V0..V3,
// a = x0+x2, b = x0−x2, c = x1+x3, d = −i·(x1−x3) (a swap, then NEGIM),
// leaving a+c, a−c, b+d, b−d in V0..V3. V4..V7 are scratch.
#define FWD4(V0, V1, V2, V3, V4, V5, V6, V7, NEGIM) \
	VADDPD    V2, V0, V4;    \
	VSUBPD    V2, V0, V5;    \
	VADDPD    V3, V1, V6;    \
	VSUBPD    V3, V1, V7;    \
	VPERMILPD $5, V7, V7;    \
	VXORPD    NEGIM, V7, V7; \
	VADDPD    V6, V4, V0;    \
	VSUBPD    V6, V4, V1;    \
	VADDPD    V7, V5, V2;    \
	VSUBPD    V7, V5, V3

// INV4 is the inverse butterfly with twiddles 1: from y0..y3 in V0..V3,
// a = y0+y1, c = y0−y1, b = y2+y3, e = +i·(y2−y3) (a swap, then NEGRE),
// leaving a+b, c+e, a−b, c−e in V0..V3. V4..V7 are scratch.
#define INV4(V0, V1, V2, V3, V4, V5, V6, V7, NEGRE) \
	VADDPD    V1, V0, V4;    \
	VSUBPD    V1, V0, V5;    \
	VADDPD    V3, V2, V6;    \
	VSUBPD    V3, V2, V7;    \
	VPERMILPD $5, V7, V7;    \
	VXORPD    NEGRE, V7, V7; \
	VADDPD    V6, V4, V0;    \
	VADDPD    V7, V5, V1;    \
	VSUBPD    V6, V4, V2;    \
	VSUBPD    V7, V5, V3

// CMUL sets X to X·w, with WR = (wr, wr) and WI = (wi, wi) for each
// complex: (xr·wr − xi·wi, xi·wr + xr·wi), the Go product's bits (its
// imaginary part is xr·wi + xi·wr, and addition commutes). T is scratch.
#define CMUL(X, WR, WI, T) \
	VPERMILPD $5, X, T; \
	VMULPD    WI, T, T; \
	VMULPD    WR, X, X; \
	VADDSUBPD T, X, X

// CMULCONJ sets X to X·conj(w), with WR = (wr, wr) and WIN = (wi, −wi)
// for each complex: (xr·wr + xi·wi, xi·wr + (−xr·wi)), mulConj's bits.
// T is scratch.
#define CMULCONJ(X, WR, WIN, T) \
	VMULPD    WR, X, T;  \
	VPERMILPD $5, X, X;  \
	VMULPD    WIN, X, X; \
	VADDPD    X, T, X

// LOAD4 and STORE4 move rows 0..3 of a butterfly at AX (offsets R8, R9,
// R10 from row 0).
#define LOAD4(V0, V1, V2, V3) \
	VMOVUPD (AX), V0;       \
	VMOVUPD (AX)(R8*1), V1; \
	VMOVUPD (AX)(R9*1), V2; \
	VMOVUPD (AX)(R10*1), V3

#define STORE4(V0, V1, V2, V3) \
	VMOVUPD V0, (AX);       \
	VMOVUPD V1, (AX)(R8*1); \
	VMOVUPD V2, (AX)(R9*1); \
	VMOVUPD V3, (AX)(R10*1)

// TWIDDLES broadcasts (w1, w2, w3) of row j from R11 (w1[j]; the planes
// are BX bytes apart) into Y8/Y9, Y10/Y11, Y12/Y13 as real and imaginary
// parts.
#define TWIDDLES \
	VBROADCASTSD (R11), Y8;         \
	VBROADCASTSD 8(R11), Y9;        \
	VBROADCASTSD (R11)(BX*1), Y10;  \
	VBROADCASTSD 8(R11)(BX*1), Y11; \
	VBROADCASTSD (R11)(BX*2), Y12;  \
	VBROADCASTSD 8(R11)(BX*2), Y13

// STAGE_SETUP loads the arguments of a vector stage: DI = d, CX = end of
// d, SI = tw, R8/R9/R10 = q, 2q, 3q elements in bytes.
#define STAGE_SETUP \
	MOVQ d+0(FP), DI;     \
	MOVQ n+8(FP), CX;     \
	SHLQ $4, CX;          \
	ADDQ DI, CX;          \
	MOVQ q+16(FP), R8;    \
	SHLQ $4, R8;          \
	MOVQ tw+24(FP), SI;   \
	LEAQ (R8)(R8*1), R9;  \
	LEAQ (R9)(R8*1), R10

// COLS_SETUP loads the arguments of a column stage: CX = p, DX = end of
// the n rows, R12 = one row, R8/R9/R10 = q, 2q, 3q rows, R13 = the even
// part of the run, all in bytes.
#define COLS_SETUP \
	MOVQ  p+0(FP), CX;      \
	MOVQ  stride+8(FP), R12; \
	SHLQ  $4, R12;          \
	MOVQ  n+16(FP), DX;     \
	IMULQ R12, DX;          \
	ADDQ  CX, DX;           \
	MOVQ  q+24(FP), R8;     \
	IMULQ R12, R8;          \
	LEAQ  (R8)(R8*1), R9;   \
	LEAQ  (R9)(R8*1), R10;  \
	MOVQ  w+32(FP), R13;    \
	ANDQ  $-2, R13;         \
	SHLQ  $4, R13

// TAIL_LOAD gathers the eight elements of a span-4 tail pass at DI, two
// groups of four, as V0..V3 = (g0[i], g1[i]) for i = 0..3: the rows of a
// two-column butterfly. Each register is one 128-bit load and one insert
// from memory, so the transposition costs no shuffle port. TAIL_STORE
// scatters them back.
#define TAIL_LOAD(V0, V1, V2, V3, X0, X1, X2, X3) \
	VMOVUPD     (DI), X0;             \
	VINSERTF128 $1, 64(DI), V0, V0;   \
	VMOVUPD     16(DI), X1;           \
	VINSERTF128 $1, 80(DI), V1, V1;   \
	VMOVUPD     32(DI), X2;           \
	VINSERTF128 $1, 96(DI), V2, V2;   \
	VMOVUPD     48(DI), X3;           \
	VINSERTF128 $1, 112(DI), V3, V3

#define TAIL_STORE(V0, V1, V2, V3, X0, X1, X2, X3) \
	VMOVUPD      X0, (DI);         \
	VEXTRACTF128 $1, V0, 64(DI);   \
	VMOVUPD      X1, 16(DI);       \
	VEXTRACTF128 $1, V1, 80(DI);   \
	VMOVUPD      X2, 32(DI);       \
	VEXTRACTF128 $1, V2, 96(DI);   \
	VMOVUPD      X3, 48(DI);       \
	VEXTRACTF128 $1, V3, 112(DI)

// func fwdStageAVX2(d *complex128, n, q int, tw *complex128)
TEXT ·fwdStageAVX2(SB), NOSPLIT, $0-32
	STAGE_SETUP
	VMOVUPD negIm<>(SB), Y15

fblock:
	XORQ BX, BX // byte offset of j in d0 and in w1

fpair:
	LEAQ (DI)(BX*1), AX
	LEAQ (SI)(BX*1), DX
	LOAD4(Y0, Y1, Y2, Y3)
	FWD4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y15)
	VMOVDDUP  (DX)(R8*1), Y8
	VPERMILPD $15, (DX)(R8*1), Y9
	CMUL(Y1, Y8, Y9, Y4)
	VMOVDDUP  (DX), Y10
	VPERMILPD $15, (DX), Y11
	CMUL(Y2, Y10, Y11, Y5)
	VMOVDDUP  (DX)(R9*1), Y12
	VPERMILPD $15, (DX)(R9*1), Y13
	CMUL(Y3, Y12, Y13, Y6)
	STORE4(Y0, Y1, Y2, Y3)
	ADDQ $32, BX
	CMPQ BX, R8
	JB   fpair
	LEAQ (DI)(R8*4), DI
	CMPQ DI, CX
	JB   fblock
	VZEROUPPER
	RET

// func invStageAVX2(d *complex128, n, q int, tw *complex128)
TEXT ·invStageAVX2(SB), NOSPLIT, $0-32
	STAGE_SETUP
	VMOVUPD negIm<>(SB), Y15
	VMOVUPD negRe<>(SB), Y14

iblock:
	XORQ BX, BX

ipair:
	LEAQ (DI)(BX*1), AX
	LEAQ (SI)(BX*1), DX
	LOAD4(Y0, Y1, Y2, Y3)
	VMOVDDUP  (DX)(R8*1), Y8
	VPERMILPD $15, (DX)(R8*1), Y9
	VXORPD    Y15, Y9, Y9
	CMULCONJ(Y1, Y8, Y9, Y4)
	VMOVDDUP  (DX), Y10
	VPERMILPD $15, (DX), Y11
	VXORPD    Y15, Y11, Y11
	CMULCONJ(Y2, Y10, Y11, Y5)
	VMOVDDUP  (DX)(R9*1), Y12
	VPERMILPD $15, (DX)(R9*1), Y13
	VXORPD    Y15, Y13, Y13
	CMULCONJ(Y3, Y12, Y13, Y6)
	INV4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y14)
	STORE4(Y0, Y1, Y2, Y3)
	ADDQ $32, BX
	CMPQ BX, R8
	JB   ipair
	LEAQ (DI)(R8*4), DI
	CMPQ DI, CX
	JB   iblock
	VZEROUPPER
	RET

// func fwdColsAVX2(p *complex128, stride, n, q, w int, tw *complex128)
TEXT ·fwdColsAVX2(SB), NOSPLIT, $0-48
	COLS_SETUP
	VMOVUPD negIm<>(SB), Y15

fcblock:
	// Row j = 0: every twiddle is 1 and nothing is multiplied.
	MOVQ CX, AX
	LEAQ (CX)(R13*1), SI
	JMP  fc0test

fc0pair:
	LOAD4(Y0, Y1, Y2, Y3)
	FWD4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y15)
	STORE4(Y0, Y1, Y2, Y3)
	ADDQ $32, AX

fc0test:
	CMPQ  AX, SI
	JB    fc0pair
	TESTQ $1, w+32(FP)
	JZ    fc0done
	LOAD4(X0, X1, X2, X3)
	FWD4(X0, X1, X2, X3, X4, X5, X6, X7, X15)
	STORE4(X0, X1, X2, X3)

fc0done:
	// Rows j = 1 .. q−1, from DI = row j to the block's row q.
	MOVQ tw+40(FP), R11
	LEAQ (CX)(R12*1), DI
	JMP  fcjtest

fcjrow:
	ADDQ $16, R11
	MOVQ q+24(FP), BX
	SHLQ $4, BX
	TWIDDLES
	MOVQ DI, AX
	LEAQ (DI)(R13*1), SI
	JMP  fcxtest

fcxpair:
	LOAD4(Y0, Y1, Y2, Y3)
	FWD4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y15)
	CMUL(Y1, Y10, Y11, Y4)
	CMUL(Y2, Y8, Y9, Y4)
	CMUL(Y3, Y12, Y13, Y4)
	STORE4(Y0, Y1, Y2, Y3)
	ADDQ $32, AX

fcxtest:
	CMPQ  AX, SI
	JB    fcxpair
	TESTQ $1, w+32(FP)
	JZ    fcjnext
	LOAD4(X0, X1, X2, X3)
	FWD4(X0, X1, X2, X3, X4, X5, X6, X7, X15)
	CMUL(X1, X10, X11, X4)
	CMUL(X2, X8, X9, X4)
	CMUL(X3, X12, X13, X4)
	STORE4(X0, X1, X2, X3)

fcjnext:
	ADDQ R12, DI

fcjtest:
	LEAQ (CX)(R8*1), BX
	CMPQ DI, BX
	JB   fcjrow
	LEAQ (CX)(R8*4), CX
	CMPQ CX, DX
	JB   fcblock
	VZEROUPPER
	RET

// func invColsAVX2(p *complex128, stride, n, q, w int, tw *complex128)
TEXT ·invColsAVX2(SB), NOSPLIT, $0-48
	COLS_SETUP
	VMOVUPD negIm<>(SB), Y15
	VMOVUPD negRe<>(SB), Y14

icblock:
	MOVQ CX, AX
	LEAQ (CX)(R13*1), SI
	JMP  ic0test

ic0pair:
	LOAD4(Y0, Y1, Y2, Y3)
	INV4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y14)
	STORE4(Y0, Y1, Y2, Y3)
	ADDQ $32, AX

ic0test:
	CMPQ  AX, SI
	JB    ic0pair
	TESTQ $1, w+32(FP)
	JZ    ic0done
	LOAD4(X0, X1, X2, X3)
	INV4(X0, X1, X2, X3, X4, X5, X6, X7, X14)
	STORE4(X0, X1, X2, X3)

ic0done:
	MOVQ tw+40(FP), R11
	LEAQ (CX)(R12*1), DI
	JMP  icjtest

icjrow:
	ADDQ $16, R11
	MOVQ q+24(FP), BX
	SHLQ $4, BX
	TWIDDLES
	VXORPD Y15, Y9, Y9
	VXORPD Y15, Y11, Y11
	VXORPD Y15, Y13, Y13
	MOVQ   DI, AX
	LEAQ   (DI)(R13*1), SI
	JMP    icxtest

icxpair:
	LOAD4(Y0, Y1, Y2, Y3)
	CMULCONJ(Y1, Y10, Y11, Y4)
	CMULCONJ(Y2, Y8, Y9, Y4)
	CMULCONJ(Y3, Y12, Y13, Y4)
	INV4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y14)
	STORE4(Y0, Y1, Y2, Y3)
	ADDQ $32, AX

icxtest:
	CMPQ  AX, SI
	JB    icxpair
	TESTQ $1, w+32(FP)
	JZ    icjnext
	LOAD4(X0, X1, X2, X3)
	CMULCONJ(X1, X10, X11, X4)
	CMULCONJ(X2, X8, X9, X4)
	CMULCONJ(X3, X12, X13, X4)
	INV4(X0, X1, X2, X3, X4, X5, X6, X7, X14)
	STORE4(X0, X1, X2, X3)

icjnext:
	ADDQ R12, DI

icjtest:
	LEAQ (CX)(R8*1), BX
	CMPQ DI, BX
	JB   icjrow
	LEAQ (CX)(R8*4), CX
	CMPQ CX, DX
	JB   icblock
	VZEROUPPER
	RET

// func fwdTailAVX2(d *complex128, n int)
//
// The forward span-4 tail over d[0:n], n a multiple of 8: two groups of
// four a pass, one row of both in each register.
TEXT ·fwdTailAVX2(SB), NOSPLIT, $0-16
	MOVQ    d+0(FP), DI
	MOVQ    n+8(FP), CX
	SHLQ    $4, CX
	ADDQ    DI, CX
	VMOVUPD negIm<>(SB), Y15

ft4pass:
	TAIL_LOAD(Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	FWD4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y15)
	TAIL_STORE(Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	ADDQ $128, DI
	CMPQ DI, CX
	JB   ft4pass
	VZEROUPPER
	RET

// func invTailAVX2(d *complex128, n int)
//
// The inverse span-4 tail, as fwdTailAVX2.
TEXT ·invTailAVX2(SB), NOSPLIT, $0-16
	MOVQ    d+0(FP), DI
	MOVQ    n+8(FP), CX
	SHLQ    $4, CX
	ADDQ    DI, CX
	VMOVUPD negRe<>(SB), Y14

it4pass:
	TAIL_LOAD(Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	INV4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y14)
	TAIL_STORE(Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	ADDQ $128, DI
	CMPQ DI, CX
	JB   it4pass
	VZEROUPPER
	RET

// func tail2AVX2(d *complex128, n int)
//
// The span-2 tail over d[0:n], n a multiple of 8: four groups of two a
// pass, gathered as TAIL_LOAD does, so that V0, V1 hold x and y of
// groups 0 and 2 and V2, V3 those of groups 1 and 3.
TEXT ·tail2AVX2(SB), NOSPLIT, $0-16
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	SHLQ $4, CX
	ADDQ DI, CX

t2pass:
	TAIL_LOAD(Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	VADDPD Y1, Y0, Y4
	VSUBPD Y1, Y0, Y5
	VADDPD Y3, Y2, Y6
	VSUBPD Y3, Y2, Y7
	TAIL_STORE(Y4, Y5, Y6, Y7, X4, X5, X6, X7)
	ADDQ $128, DI
	CMPQ DI, CX
	JB   t2pass
	VZEROUPPER
	RET

// func cols2AVX2(p *complex128, stride, n, w int)
TEXT ·cols2AVX2(SB), NOSPLIT, $0-32
	MOVQ  p+0(FP), CX
	MOVQ  stride+8(FP), R8
	SHLQ  $4, R8
	MOVQ  n+16(FP), DX
	IMULQ R8, DX
	ADDQ  CX, DX
	MOVQ  w+24(FP), R13
	ANDQ  $-2, R13
	SHLQ  $4, R13

c2rows:
	MOVQ CX, AX
	LEAQ (CX)(R13*1), SI
	JMP  c2test

c2pair:
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R8*1), Y1
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R8*1)
	ADDQ    $32, AX

c2test:
	CMPQ  AX, SI
	JB    c2pair
	TESTQ $1, w+24(FP)
	JZ    c2next
	VMOVUPD (AX), X0
	VMOVUPD (AX)(R8*1), X1
	VADDPD  X1, X0, X2
	VSUBPD  X1, X0, X3
	VMOVUPD X2, (AX)
	VMOVUPD X3, (AX)(R8*1)

c2next:
	LEAQ (CX)(R8*2), CX
	CMPQ CX, DX
	JB   c2rows
	VZEROUPPER
	RET

// func mirrorAVX2(da, sa, ka, db, sb, kb *complex128, n int, self bool)
//
// da[c] = sa[c]·kb[nc] and db[nc] = sb[nc]·ka[c] for every c < n, n ≥ 2:
// first the octaves {0} and {1}, which are their own mirrors (one step
// of two c, nothing swapped), then each octave [lo, 2lo) from lo = 2 up,
// where nc = 3lo − 1 − c, two c a step, walking a up from lo and b down
// from 2lo − 1 (only the lower half of the octave when self). A step
// loads each side's pair once and swaps its halves with VPERM2F128, so
// (kb[nc], kb[nc−1]) lines up with (ka[c], ka[c+1]). Every product reads
// ka and kb before either store, so ka = da and kb = db is the product in
// place; when self, a and b are one row and both stores of a step write
// the same values.
TEXT ·mirrorAVX2(SB), NOSPLIT, $0-57
	MOVQ    da+0(FP), DI
	MOVQ    sa+8(FP), SI
	MOVQ    ka+16(FP), R10
	MOVQ    db+24(FP), R8
	MOVQ    sb+32(FP), R9
	MOVQ    kb+40(FP), BX
	MOVQ    n+48(FP), R11
	SHLQ    $4, R11
	MOVBQZX self+56(FP), CX
	VMOVUPD   (R10), Y0         // ka[0], ka[1]
	VMOVUPD   (BX), Y1          // kb[0], kb[1]
	VMOVUPD   (SI), Y3
	VMOVDDUP  Y1, Y4
	VPERMILPD $15, Y1, Y5
	CMUL(Y3, Y4, Y5, Y6)
	VMOVUPD   (R9), Y7
	VMOVDDUP  Y0, Y8
	VPERMILPD $15, Y0, Y9
	CMUL(Y7, Y8, Y9, Y10)
	VMOVUPD   Y3, (DI)
	VMOVUPD   Y7, (R8)
	MOVQ      $32, DX           // lo in bytes
	JMP       mtest

moct:
	MOVQ DX, R12                // a's byte offset, up from lo
	LEAQ -32(DX)(DX*1), R13     // b's byte offset, down from 2lo − 2
	MOVQ DX, AX
	SHRQ CX, AX
	ADDQ DX, AX                 // end of a's walk

mpair:
	VMOVUPD    (R10)(R12*1), Y0 // ka[c], ka[c+1]
	VMOVUPD    (BX)(R13*1), Y1  // kb[nc−1], kb[nc]
	VPERM2F128 $1, Y0, Y0, Y2   // ka[c+1], ka[c]
	VPERM2F128 $1, Y1, Y1, Y1   // kb[nc], kb[nc−1]
	VMOVUPD    (SI)(R12*1), Y3
	VMOVDDUP   Y1, Y4
	VPERMILPD  $15, Y1, Y5
	CMUL(Y3, Y4, Y5, Y6)
	VMOVUPD    (R9)(R13*1), Y7
	VMOVDDUP   Y2, Y8
	VPERMILPD  $15, Y2, Y9
	CMUL(Y7, Y8, Y9, Y10)
	VMOVUPD    Y3, (DI)(R12*1)
	VMOVUPD    Y7, (R8)(R13*1)
	ADDQ       $32, R12
	SUBQ       $32, R13
	CMPQ       R12, AX
	JB         mpair
	SHLQ       $1, DX

mtest:
	CMPQ DX, R11
	JB   moct
	VZEROUPPER
	RET

// func twiddleAVX2(dst, src *complex128, n int, w complex128)
//
// dst[x] = src[x]·w for x < n, n ≥ 1.
TEXT ·twiddleAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD w_real+24(FP), Y8
	VBROADCASTSD w_imag+32(FP), Y9
	MOVQ         CX, DX
	ANDQ         $-2, DX
	SHLQ         $4, DX
	XORQ         AX, AX
	JMP          ttest

tpair:
	VMOVUPD (SI)(AX*1), Y0
	CMUL(Y0, Y8, Y9, Y1)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX

ttest:
	CMPQ  AX, DX
	JB    tpair
	TESTQ $1, CX
	JZ    tdone
	VMOVUPD (SI)(AX*1), X0
	CMUL(X0, X8, X9, X1)
	VMOVUPD X0, (DI)(AX*1)

tdone:
	VZEROUPPER
	RET

// func narrowAVX2(dst *Lane, colStride, n int, src **complex128, groups int)
//
// One harvest row of a block: for each of n positions, src[0..4·groups)
// (one scratch row each, advanced by one complex128 a position) are
// narrowed to Lanes and stored as 8·groups adjacent lanes at dst, one
// 16-byte store a group; dst advances colStride Lanes a position. A group
// is NarrowLane on eight values: two VCVTPD2PS (Go's float32(v)), then on
// the float32 bits b, (b + 0x7fff + (b>>16 & 1)) >> 16, or for a NaN
// (b>>16) | 0x40, and VPACKUSDW to sixteen bits (every word is below
// 2^16, so nothing saturates).
TEXT ·narrowAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         colStride+8(FP), DX
	SHLQ         $1, DX
	MOVQ         n+16(FP), CX
	SHLQ         $4, CX
	MOVQ         src+24(FP), SI
	MOVQ         groups+32(FP), R12
	VPBROADCASTD laneBias<>(SB), Y8
	VPBROADCASTD laneOne<>(SB), Y9
	VPBROADCASTD laneQuiet<>(SB), Y10
	XORQ         R8, R8              // byte offset of the position in a row

npos:
	MOVQ SI, BX
	MOVQ DI, AX
	MOVQ R12, R13

ngroup:
	MOVQ         (BX), R9
	MOVQ         8(BX), R10
	VMOVUPD      (R9)(R8*1), X0
	VINSERTF128  $1, (R10)(R8*1), Y0, Y0
	MOVQ         16(BX), R9
	MOVQ         24(BX), R10
	VMOVUPD      (R9)(R8*1), X1
	VINSERTF128  $1, (R10)(R8*1), Y1, Y1
	VCVTPD2PSY   Y0, X0
	VCVTPD2PSY   Y1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VPSRLD       $16, Y0, Y2         // b >> 16
	VPAND        Y9, Y2, Y3          // the tie-to-even bit
	VPADDD       Y8, Y0, Y4
	VPADDD       Y3, Y4, Y4
	VPSRLD       $16, Y4, Y4         // rounded
	VPOR         Y10, Y2, Y2         // a NaN, quieted
	VCMPPS       $3, Y0, Y0, Y5      // unordered: all ones where b is a NaN
	VBLENDVPS    Y5, Y2, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPACKUSDW    X5, X4, X4
	VMOVDQU      X4, (AX)
	ADDQ         $32, BX
	ADDQ         $16, AX
	DECQ         R13
	JNZ          ngroup
	ADDQ         $16, R8
	ADDQ         DX, DI
	CMPQ         R8, CX
	JB           npos
	VZEROUPPER
	RET
