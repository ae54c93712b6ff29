#include "textflag.h"

// The AVX2 encoding of the Cauchy draw's tangent: math.Tan's operations
// (the Go source of package math, tan.go, below its reduction threshold)
// four float64 lanes a register, in math.Tan's order, without fused
// multiply-adds, so every lane is math.Tan's bits.

// Each constant four times, one per lane, as math.Tan's bits.
// |x|: every bit but the sign
DATA tanAbs<>+0(SB)/8, $0x7fffffffffffffff
DATA tanAbs<>+8(SB)/8, $0x7fffffffffffffff
DATA tanAbs<>+16(SB)/8, $0x7fffffffffffffff
DATA tanAbs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL tanAbs<>(SB), RODATA|NOPTR, $32
// the sign bit
DATA tanSign<>+0(SB)/8, $0x8000000000000000
DATA tanSign<>+8(SB)/8, $0x8000000000000000
DATA tanSign<>+16(SB)/8, $0x8000000000000000
DATA tanSign<>+24(SB)/8, $0x8000000000000000
GLOBL tanSign<>(SB), RODATA|NOPTR, $32
// +Inf
DATA tanInf<>+0(SB)/8, $0x7ff0000000000000
DATA tanInf<>+8(SB)/8, $0x7ff0000000000000
DATA tanInf<>+16(SB)/8, $0x7ff0000000000000
DATA tanInf<>+24(SB)/8, $0x7ff0000000000000
GLOBL tanInf<>(SB), RODATA|NOPTR, $32
// math.NaN()
DATA tanNaN<>+0(SB)/8, $0x7ff8000000000001
DATA tanNaN<>+8(SB)/8, $0x7ff8000000000001
DATA tanNaN<>+16(SB)/8, $0x7ff8000000000001
DATA tanNaN<>+24(SB)/8, $0x7ff8000000000001
GLOBL tanNaN<>(SB), RODATA|NOPTR, $32
// 4/π
DATA tanFourOverPi<>+0(SB)/8, $0x3ff45f306dc9c883
DATA tanFourOverPi<>+8(SB)/8, $0x3ff45f306dc9c883
DATA tanFourOverPi<>+16(SB)/8, $0x3ff45f306dc9c883
DATA tanFourOverPi<>+24(SB)/8, $0x3ff45f306dc9c883
GLOBL tanFourOverPi<>(SB), RODATA|NOPTR, $32
// π/4 in three parts
DATA tanPI4A<>+0(SB)/8, $0x3fe921fb40000000
DATA tanPI4A<>+8(SB)/8, $0x3fe921fb40000000
DATA tanPI4A<>+16(SB)/8, $0x3fe921fb40000000
DATA tanPI4A<>+24(SB)/8, $0x3fe921fb40000000
GLOBL tanPI4A<>(SB), RODATA|NOPTR, $32
DATA tanPI4B<>+0(SB)/8, $0x3e64442d00000000
DATA tanPI4B<>+8(SB)/8, $0x3e64442d00000000
DATA tanPI4B<>+16(SB)/8, $0x3e64442d00000000
DATA tanPI4B<>+24(SB)/8, $0x3e64442d00000000
GLOBL tanPI4B<>(SB), RODATA|NOPTR, $32
DATA tanPI4C<>+0(SB)/8, $0x3ce8469898cc5170
DATA tanPI4C<>+8(SB)/8, $0x3ce8469898cc5170
DATA tanPI4C<>+16(SB)/8, $0x3ce8469898cc5170
DATA tanPI4C<>+24(SB)/8, $0x3ce8469898cc5170
GLOBL tanPI4C<>(SB), RODATA|NOPTR, $32
// the rational's coefficients
DATA tanP0<>+0(SB)/8, $0xc0c992d8d24f3f38
DATA tanP0<>+8(SB)/8, $0xc0c992d8d24f3f38
DATA tanP0<>+16(SB)/8, $0xc0c992d8d24f3f38
DATA tanP0<>+24(SB)/8, $0xc0c992d8d24f3f38
GLOBL tanP0<>(SB), RODATA|NOPTR, $32
DATA tanP1<>+0(SB)/8, $0x413199eca5fc9ddd
DATA tanP1<>+8(SB)/8, $0x413199eca5fc9ddd
DATA tanP1<>+16(SB)/8, $0x413199eca5fc9ddd
DATA tanP1<>+24(SB)/8, $0x413199eca5fc9ddd
GLOBL tanP1<>(SB), RODATA|NOPTR, $32
DATA tanP2<>+0(SB)/8, $0xc1711fead3299176
DATA tanP2<>+8(SB)/8, $0xc1711fead3299176
DATA tanP2<>+16(SB)/8, $0xc1711fead3299176
DATA tanP2<>+24(SB)/8, $0xc1711fead3299176
GLOBL tanP2<>(SB), RODATA|NOPTR, $32
DATA tanQ1<>+0(SB)/8, $0x40cab8a5eeb36572
DATA tanQ1<>+8(SB)/8, $0x40cab8a5eeb36572
DATA tanQ1<>+16(SB)/8, $0x40cab8a5eeb36572
DATA tanQ1<>+24(SB)/8, $0x40cab8a5eeb36572
GLOBL tanQ1<>(SB), RODATA|NOPTR, $32
DATA tanQ2<>+0(SB)/8, $0xc13427bc582abc96
DATA tanQ2<>+8(SB)/8, $0xc13427bc582abc96
DATA tanQ2<>+16(SB)/8, $0xc13427bc582abc96
DATA tanQ2<>+24(SB)/8, $0xc13427bc582abc96
GLOBL tanQ2<>(SB), RODATA|NOPTR, $32
DATA tanQ3<>+0(SB)/8, $0x4177d98fc2ead8ef
DATA tanQ3<>+8(SB)/8, $0x4177d98fc2ead8ef
DATA tanQ3<>+16(SB)/8, $0x4177d98fc2ead8ef
DATA tanQ3<>+24(SB)/8, $0x4177d98fc2ead8ef
GLOBL tanQ3<>(SB), RODATA|NOPTR, $32
DATA tanQ4<>+0(SB)/8, $0xc189afe03cbe5a31
DATA tanQ4<>+8(SB)/8, $0xc189afe03cbe5a31
DATA tanQ4<>+16(SB)/8, $0xc189afe03cbe5a31
DATA tanQ4<>+24(SB)/8, $0xc189afe03cbe5a31
GLOBL tanQ4<>(SB), RODATA|NOPTR, $32
// 1e-14, below which z² takes tan(z) = z
DATA tanTiny<>+0(SB)/8, $0x3d06849b86a12b9b
DATA tanTiny<>+8(SB)/8, $0x3d06849b86a12b9b
DATA tanTiny<>+16(SB)/8, $0x3d06849b86a12b9b
DATA tanTiny<>+24(SB)/8, $0x3d06849b86a12b9b
GLOBL tanTiny<>(SB), RODATA|NOPTR, $32
// −1
DATA tanMinusOne<>+0(SB)/8, $0xbff0000000000000
DATA tanMinusOne<>+8(SB)/8, $0xbff0000000000000
DATA tanMinusOne<>+16(SB)/8, $0xbff0000000000000
DATA tanMinusOne<>+24(SB)/8, $0xbff0000000000000
GLOBL tanMinusOne<>(SB), RODATA|NOPTR, $32

// j's low bit, once a 32-bit lane.
DATA tanOne32<>+0(SB)/4, $1
DATA tanOne32<>+4(SB)/4, $1
DATA tanOne32<>+8(SB)/4, $1
DATA tanOne32<>+12(SB)/4, $1
GLOBL tanOne32<>(SB), RODATA|NOPTR, $16

// func tanAVX2(x *float64, n int)
//
// x[i] = math.Tan(x[i]) for i < n, n a multiple of 4, every |x[i]| below
// 2^29 (math's reduceThreshold) or not finite. Per lane, as tan():
// j = trunc(|x|·4/π), made even (j += j&1); y = float64(j);
// z = ((|x| − y·PI4A) − y·PI4B) − y·PI4C; y = z + z·(zz·P(zz)/Q(zz)) when
// zz = z² > 1e-14, else z; y = −1/y when j&2; and the sign of x put back.
// Both branches are computed and blended. A NaN lane is x, an infinite
// one math.NaN(); ±0 comes out of the arithmetic as itself.
TEXT ·tanAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	SHLQ $3, CX
	ADDQ DI, CX
	JMP  ttest

tquad:
	VMOVUPD     (DI), Y0                  // x
	VANDPD      tanAbs<>(SB), Y0, Y1      // |x|
	VMULPD      tanFourOverPi<>(SB), Y1, Y2
	VCVTTPD2DQY Y2, X3                    // j
	VPAND       tanOne32<>(SB), X3, X4
	VPADDD      X4, X3, X3                // j + j&1
	VCVTDQ2PD   X3, Y4                    // y
	VMULPD      tanPI4A<>(SB), Y4, Y5
	VSUBPD      Y5, Y1, Y6
	VMULPD      tanPI4B<>(SB), Y4, Y5
	VSUBPD      Y5, Y6, Y6
	VMULPD      tanPI4C<>(SB), Y4, Y5
	VSUBPD      Y5, Y6, Y6                // z
	VMULPD      Y6, Y6, Y7                // zz
	VMULPD      tanP0<>(SB), Y7, Y8       // zz·(((P0·zz) + P1)·zz + P2)
	VADDPD      tanP1<>(SB), Y8, Y8
	VMULPD      Y7, Y8, Y8
	VADDPD      tanP2<>(SB), Y8, Y8
	VMULPD      Y8, Y7, Y8
	VADDPD      tanQ1<>(SB), Y7, Y9       // (((zz + Q1)·zz + Q2)·zz + Q3)·zz + Q4
	VMULPD      Y7, Y9, Y9
	VADDPD      tanQ2<>(SB), Y9, Y9
	VMULPD      Y7, Y9, Y9
	VADDPD      tanQ3<>(SB), Y9, Y9
	VMULPD      Y7, Y9, Y9
	VADDPD      tanQ4<>(SB), Y9, Y9
	VDIVPD      Y9, Y8, Y8
	VMULPD      Y8, Y6, Y8
	VADDPD      Y8, Y6, Y8                // z + z·(…)
	VCMPPD      $0x1e, tanTiny<>(SB), Y7, Y10 // zz > 1e-14
	VBLENDVPD   Y10, Y8, Y6, Y6           // y
	VMOVUPD     tanMinusOne<>(SB), Y12
	VDIVPD      Y6, Y12, Y12              // −1/y
	VPSLLD      $30, X3, X11              // j&2 in each 32-bit sign bit
	VPMOVSXDQ   X11, Y11                  // and in each 64-bit one
	VBLENDVPD   Y11, Y12, Y6, Y6
	VANDPD      tanSign<>(SB), Y0, Y13
	VXORPD      Y13, Y6, Y6               // the sign of x
	VCMPPD      $3, Y0, Y0, Y14           // unordered: x is a NaN
	VBLENDVPD   Y14, Y0, Y6, Y6
	VCMPPD      $0, tanInf<>(SB), Y1, Y15 // |x| = +Inf
	VBLENDVPD   Y15, tanNaN<>(SB), Y6, Y6
	VMOVUPD     Y6, (DI)
	ADDQ        $32, DI

ttest:
	CMPQ DI, CX
	JB   tquad
	VZEROUPPER
	RET
