#include "textflag.h"

// The AVX2 encoding of the sketch tier's count and median (quantile.go):
// four float64 lanes to a YMM register, each difference a − b rounded as
// the Go body's subtraction rounds it, and every comparison made on the
// keys' integer order, so each decision and each selected key is the Go
// body's.

// sign is the float64 sign bit.
DATA sign<>+0(SB)/8, $0x8000000000000000
GLOBL sign<>(SB), RODATA|NOPTR, $8

// absMask clears the float64 sign bit.
DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8

// func firstBelowAVX2(q, rows *float64, k, nrows int, bound uint64, need, quiet int) int
//
// Row r is the k lanes at rows + r·k. A row is rejected once need of its
// keys are at or above bound, counted eight lanes at a time and checked
// after every block from block quiet + 1 on, then one lane at a time over
// the k mod 8 lanes left; the caller has made quiet the blocks too few to
// hold need lanes, so no check is skipped that could have rejected.
// A key is the difference with its sign bit cleared; with the sign bit
// set instead (VORPD), a signed compare of it against bound with its
// sign bit flipped is the unsigned compare of the key against bound.
// Returns the first row not rejected, or nrows.
TEXT ·firstBelowAVX2(SB), NOSPLIT, $0-64
	MOVQ         q+0(FP), SI
	MOVQ         rows+8(FP), DI
	MOVQ         k+16(FP), CX
	MOVQ         nrows+24(FP), R8    // rows left
	MOVQ         need+40(FP), R10
	MOVQ         quiet+48(FP), R12
	VPBROADCASTQ sign<>(SB), Y15
	VPBROADCASTQ bound+32(FP), Y14
	VPXOR        Y15, Y14, Y14       // bound with its sign bit flipped
	SHLQ         $3, CX              // bytes a row
	MOVQ         CX, R11
	ANDQ         $-64, R11           // bytes a row in whole blocks
	SHLQ         $6, R12             // bytes a row in quiet blocks

row:
	TESTQ R8, R8
	JZ    found
	MOVQ  SI, AX                     // q's lane
	MOVQ  DI, BX                     // the row's lane
	LEAQ  (SI)(R12*1), R13
	VPXOR Y2, Y2, Y2                 // minus the lanes below bound, by position

quiet:
	CMPQ     AX, R13
	JAE      counted
	VMOVUPD  (AX), Y0
	VMOVUPD  32(AX), Y1
	VSUBPD   (BX), Y0, Y0
	VSUBPD   32(BX), Y1, Y1
	VORPD    Y15, Y0, Y0
	VORPD    Y15, Y1, Y1
	VPCMPGTQ Y0, Y14, Y0             // all ones where the key is below bound
	VPCMPGTQ Y1, Y14, Y1
	VPADDQ   Y0, Y2, Y2
	VPADDQ   Y1, Y2, Y2
	ADDQ     $64, AX
	ADDQ     $64, BX
	JMP      quiet

counted:
	VEXTRACTI128 $1, Y2, X3
	VPADDQ       X3, X2, X2
	VPSHUFD      $0x4e, X2, X3
	VPADDQ       X3, X2, X2
	VMOVQ        X2, DX
	MOVQ         R12, R9
	SHRQ         $3, R9
	ADDQ         R9, DX              // lanes at or above bound
	LEAQ         (SI)(R11*1), R13

block:
	CMPQ      AX, R13
	JAE       tail
	VMOVUPD   (AX), Y0
	VMOVUPD   32(AX), Y1
	VSUBPD    (BX), Y0, Y0
	VSUBPD    32(BX), Y1, Y1
	VORPD     Y15, Y0, Y0
	VORPD     Y15, Y1, Y1
	VPCMPGTQ  Y0, Y14, Y0
	VPCMPGTQ  Y1, Y14, Y1
	VPACKSSDW Y1, Y0, Y0             // one dword a lane
	VMOVMSKPS Y0, R9
	POPCNTL   R9, R9
	ADDQ      $8, DX
	SUBQ      R9, DX
	ADDQ      $64, AX
	ADDQ      $64, BX
	CMPQ      DX, R10
	JAE       reject
	JMP       block

tail:
	LEAQ (SI)(CX*1), R13

lane:
	CMPQ   AX, R13
	JAE    decide
	VMOVSD (AX), X0
	VSUBSD (BX), X0, X0
	VMOVQ  X0, R9
	BTRQ   $63, R9
	ADDQ   $8, AX
	ADDQ   $8, BX
	CMPQ   R9, bound+32(FP)
	JB     lane
	INCQ   DX
	JMP    lane

decide:
	CMPQ DX, R10
	JB   found

reject:
	ADDQ CX, DI
	DECQ R8
	JMP  row

found:
	MOVQ nrows+24(FP), AX
	SUBQ R8, AX
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// CE sorts lanes pairwise across two registers: A gets the minimum and B
// the maximum of each lane. T is scratch.
#define CE(A, B, T) \
	VMINPD  B, A, T; \
	VMAXPD  B, A, B; \
	VMOVAPD T, A

// SORT8 runs the 19-comparator sorting network on eight registers, so
// each lane, read down Y0..Y7, is sorted.
#define SORT8 \
	CE(Y0, Y2, Y8); CE(Y1, Y3, Y9); CE(Y4, Y6, Y10); CE(Y5, Y7, Y11); \
	CE(Y0, Y4, Y8); CE(Y1, Y5, Y9); CE(Y2, Y6, Y10); CE(Y3, Y7, Y11); \
	CE(Y0, Y1, Y8); CE(Y2, Y3, Y9); CE(Y4, Y5, Y10); CE(Y6, Y7, Y11); \
	CE(Y2, Y4, Y8); CE(Y3, Y5, Y9);                                   \
	CE(Y1, Y4, Y8); CE(Y3, Y6, Y9);                                   \
	CE(Y1, Y2, Y8); CE(Y3, Y4, Y9); CE(Y5, Y6, Y10)

// CLEAN8 is the three half-cleaner steps of a bitonic merge down eight
// registers: distances 4, 2 and 1 between registers, lane by lane.
#define CLEAN8 \
	CE(Y0, Y4, Y8); CE(Y1, Y5, Y9); CE(Y2, Y6, Y10); CE(Y3, Y7, Y11); \
	CE(Y0, Y2, Y8); CE(Y1, Y3, Y9); CE(Y4, Y6, Y10); CE(Y5, Y7, Y11); \
	CE(Y0, Y1, Y8); CE(Y2, Y3, Y9); CE(Y4, Y5, Y10); CE(Y6, Y7, Y11)

// FLIP is the first step of a bitonic merge of sorted runs held in
// different lanes: A's lanes meet B's permuted by PERM IMM (a swap of
// lane pairs or a reversal), the lanes set in MASK keep the maximum in A
// and the minimum in B, the others the reverse. T and U are scratch.
#define FLIP(PERM, IMM, MASK, A, B, T, U) \
	PERM     IMM, B, B;     \
	VMINPD   B, A, T;       \
	VMAXPD   B, A, U;       \
	VBLENDPD MASK, U, T, A; \
	VBLENDPD MASK, T, U, B; \
	PERM     IMM, B, B

// PAIRS sorts each register's lane pairs (0, 1) and (2, 3). T and U are
// scratch.
#define PAIRS(A, T, U) \
	VPERMILPD $5, A, T;   \
	VMINPD   T, A, U;     \
	VMAXPD   T, A, T;     \
	VBLENDPD $0xa, T, U, A

// SORT32 sorts the 32 values in Y0..Y7, lane-major: value i of the run
// is lane i/8 of register i mod 8. Each lane is sorted down the
// registers, then lanes 0 and 1 merge (as do 2 and 3), then the two
// halves. Y8..Y11 are scratch.
#define SORT32 \
	SORT8;                                                                    \
	FLIP(VPERMILPD, $5, $0xa, Y0, Y7, Y8, Y9); FLIP(VPERMILPD, $5, $0xa, Y1, Y6, Y10, Y11);   \
	FLIP(VPERMILPD, $5, $0xa, Y2, Y5, Y8, Y9); FLIP(VPERMILPD, $5, $0xa, Y3, Y4, Y10, Y11);   \
	CLEAN8;                                                                   \
	FLIP(VPERMPD, $0x1b, $0xc, Y0, Y7, Y8, Y9); FLIP(VPERMPD, $0x1b, $0xc, Y1, Y6, Y10, Y11);   \
	FLIP(VPERMPD, $0x1b, $0xc, Y2, Y5, Y8, Y9); FLIP(VPERMPD, $0x1b, $0xc, Y3, Y4, Y10, Y11);   \
	PAIRS(Y0, Y8, Y9); PAIRS(Y1, Y10, Y11); PAIRS(Y2, Y8, Y9); PAIRS(Y3, Y10, Y11); \
	PAIRS(Y4, Y8, Y9); PAIRS(Y5, Y10, Y11); PAIRS(Y6, Y8, Y9); PAIRS(Y7, Y10, Y11); \
	CLEAN8

// ABSDIFF loads |a − b| of 32 lanes from byte offset OFF into Y0..Y7 and
// ORs the unordered compares of register pairs (all ones in a NaN lane)
// into Y15.
#define ABSDIFF(OFF) \
	VMOVUPD OFF+0(SI), Y0;   VSUBPD OFF+0(DI), Y0, Y0;     VANDPD Y14, Y0, Y0; \
	VMOVUPD OFF+32(SI), Y1;  VSUBPD OFF+32(DI), Y1, Y1;    VANDPD Y14, Y1, Y1; \
	VMOVUPD OFF+64(SI), Y2;  VSUBPD OFF+64(DI), Y2, Y2;    VANDPD Y14, Y2, Y2; \
	VMOVUPD OFF+96(SI), Y3;  VSUBPD OFF+96(DI), Y3, Y3;    VANDPD Y14, Y3, Y3; \
	VMOVUPD OFF+128(SI), Y4; VSUBPD OFF+128(DI), Y4, Y4;   VANDPD Y14, Y4, Y4; \
	VMOVUPD OFF+160(SI), Y5; VSUBPD OFF+160(DI), Y5, Y5;   VANDPD Y14, Y5, Y5; \
	VMOVUPD OFF+192(SI), Y6; VSUBPD OFF+192(DI), Y6, Y6;   VANDPD Y14, Y6, Y6; \
	VMOVUPD OFF+224(SI), Y7; VSUBPD OFF+224(DI), Y7, Y7;   VANDPD Y14, Y7, Y7; \
	VCMPPD  $3, Y1, Y0, Y8;  VCMPPD $3, Y3, Y2, Y9;        VORPD  Y9, Y8, Y8;  \
	VCMPPD  $3, Y5, Y4, Y9;  VCMPPD $3, Y7, Y6, Y10;       VORPD  Y10, Y9, Y9; \
	VORPD   Y9, Y8, Y8;      VORPD  Y8, Y15, Y15

// MERGE folds the sorted run at r·32(SP) and register 7 − r of the other
// sorted run, reversed, into the running maximum of the lower halves
// (Y12) and minimum of the upper halves (Y13).
#define MERGE(OFF, B) \
	VPERMPD $0x1b, B, Y8;   \
	VMOVUPD OFF(SP), Y9;    \
	VMINPD  Y8, Y9, Y10;    \
	VMAXPD  Y8, Y9, Y11;    \
	VMAXPD  Y10, Y12, Y12;  \
	VMINPD  Y11, Y13, Y13

// func absMedian64AVX2(a, b *float64) (lo, hi uint64, ok bool)
//
// lo and hi are the keys of rank 31 and 32 of the 64 |a[i] − b[i]|: the
// maximum of the lower half and the minimum of the upper. The keys of
// non-negative doubles order as the doubles do, so min and max are the
// keys' integer order once no key is a NaN's; ok is false if one is, and
// lo and hi are then meaningless. Each half of 32 is sorted; the lower
// half of all 64 is then the lane-wise minima of one run against the
// other reversed, and the upper half the maxima.
TEXT ·absMedian64AVX2(SB), NOSPLIT, $256-33
	MOVQ         a+0(FP), SI
	MOVQ         b+8(FP), DI
	VPBROADCASTQ absMask<>(SB), Y14
	VPXOR        Y15, Y15, Y15
	ABSDIFF(0)
	SORT32
	VMOVUPD      Y0, 0(SP)
	VMOVUPD      Y1, 32(SP)
	VMOVUPD      Y2, 64(SP)
	VMOVUPD      Y3, 96(SP)
	VMOVUPD      Y4, 128(SP)
	VMOVUPD      Y5, 160(SP)
	VMOVUPD      Y6, 192(SP)
	VMOVUPD      Y7, 224(SP)
	ABSDIFF(256)
	SORT32
	VPERMPD      $0x1b, Y7, Y8
	VMOVUPD      0(SP), Y9
	VMINPD       Y8, Y9, Y12
	VMAXPD       Y8, Y9, Y13
	MERGE(32, Y6)
	MERGE(64, Y5)
	MERGE(96, Y4)
	MERGE(128, Y3)
	MERGE(160, Y2)
	MERGE(192, Y1)
	MERGE(224, Y0)
	VEXTRACTF128 $1, Y12, X8
	VMAXPD       X8, X12, X12
	VPERMILPD    $1, X12, X8
	VMAXPD       X8, X12, X12
	VEXTRACTF128 $1, Y13, X9
	VMINPD       X9, X13, X13
	VPERMILPD    $1, X13, X9
	VMINPD       X9, X13, X13
	VMOVQ        X12, lo+16(FP)
	VMOVQ        X13, hi+24(FP)
	VPTEST       Y15, Y15
	SETEQ        ok+32(FP)
	VZEROUPPER
	RET
