#include "textflag.h"

// The AVX2 encoding of gather (pool.go): eight lanes to a register, each
// bfloat16 widened to its float32 by a 16-bit shift, a compound sketch's
// four corners summed in set order with float32 additions, and the sum
// widened to float64 once (VCVTPS2PD, Go's float64(float32)). There is no
// fused operation, so every lane is the Go body's bits.

// func widenAVX2(dst *float64, x0 *fft.Lane, n int)
TEXT ·widenAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x0+8(FP), R8
	MOVQ n+16(FP), CX
	XORQ AX, AX

widen:
	VPMOVZXWD    (R8)(AX*2), Y0
	VPSLLD       $16, Y0, Y0
	VCVTPS2PD    X0, Y4
	VEXTRACTF128 $1, Y0, X5
	VCVTPS2PD    X5, Y5
	VMOVUPD      Y4, (DI)(AX*8)
	VMOVUPD      Y5, 32(DI)(AX*8)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JB           widen
	VZEROUPPER
	RET

// func sumAVX2(dst *float64, x0, x1, x2, x3 *fft.Lane, n int)
TEXT ·sumAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ x3+32(FP), R11
	MOVQ n+40(FP), CX
	XORQ AX, AX

sum:
	VPMOVZXWD    (R8)(AX*2), Y0
	VPMOVZXWD    (R9)(AX*2), Y1
	VPMOVZXWD    (R10)(AX*2), Y2
	VPMOVZXWD    (R11)(AX*2), Y3
	VPSLLD       $16, Y0, Y0
	VPSLLD       $16, Y1, Y1
	VPSLLD       $16, Y2, Y2
	VPSLLD       $16, Y3, Y3
	VADDPS       Y1, Y0, Y0
	VADDPS       Y2, Y0, Y0
	VADDPS       Y3, Y0, Y0
	VCVTPS2PD    X0, Y4
	VEXTRACTF128 $1, Y0, X5
	VCVTPS2PD    X5, Y5
	VMOVUPD      Y4, (DI)(AX*8)
	VMOVUPD      Y5, 32(DI)(AX*8)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JB           sum
	VZEROUPPER
	RET

// func prefetchCorners(cn *corners)
//
// Each non-empty position of cn is prefetched line by line, its last
// byte included. A corners is four slice headers of 24 bytes.
TEXT ·prefetchCorners(SB), NOSPLIT, $0-8
	MOVQ cn+0(FP), SI
	MOVQ $4, CX

corner:
	MOVQ  (SI), AX
	MOVQ  8(SI), BX
	TESTQ BX, BX
	JZ    next
	LEAQ  -1(AX)(BX*2), BX

line:
	PREFETCHT0 (AX)
	ADDQ       $64, AX
	CMPQ       AX, BX
	JBE        line
	PREFETCHT0 (BX)

next:
	ADDQ $24, SI
	DECQ CX
	JNZ  corner
	RET
