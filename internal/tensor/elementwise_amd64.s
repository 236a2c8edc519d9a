//go:build amd64

#include "textflag.h"

// Elementwise kernels at vector width: sigmoid and tanh over float64 that
// equal 1/(1+math.Exp(-x)) and math.Tanh(x) in every bit, the sum of two
// slices, and the LSTM cell's gate gradients. See elementwise.go for the
// contract and the fall-back rule.

// Every constant is held four times, one 32-byte vector operand each. The
// decimal literals are the ones math/exp_amd64.s and math/tanh.go are built
// from, so both sides round them to the same double.
#define C4(off, v) \
	DATA ewc<>+(off+0)(SB)/8, v; \
	DATA ewc<>+(off+8)(SB)/8, v; \
	DATA ewc<>+(off+16)(SB)/8, v; \
	DATA ewc<>+(off+24)(SB)/8, v

#define LOG2E   ewc<>+0(SB)   // 1/ln 2
#define LN2U    ewc<>+32(SB)  // upper half of ln 2
#define LN2L    ewc<>+64(SB)  // lower half of ln 2
#define SIXTNTH ewc<>+96(SB)
#define EXPC8   ewc<>+128(SB) // 1/8!
#define EXPC7   ewc<>+160(SB)
#define EXPC6   ewc<>+192(SB)
#define EXPC5   ewc<>+224(SB)
#define EXPC4   ewc<>+256(SB)
#define EXPC3   ewc<>+288(SB) // 1/3!
#define HALF    ewc<>+320(SB)
#define ONE     ewc<>+352(SB)
#define TWO     ewc<>+384(SB)
#define ABSMASK ewc<>+416(SB)
#define SIGNBIT ewc<>+448(SB)
#define EXPMAX  ewc<>+480(SB) // largest |x| the straight-line exp serves
#define TANHP0  ewc<>+512(SB)
#define TANHP1  ewc<>+544(SB)
#define TANHP2  ewc<>+576(SB)
#define TANHQ0  ewc<>+608(SB)
#define TANHQ1  ewc<>+640(SB)
#define TANHQ2  ewc<>+672(SB)
#define TANHMID ewc<>+704(SB) // 0.625: polynomial below, exp form from here up
#define TANHSAT ewc<>+736(SB) // 0.5·MAXLOG: ±1 above
#define TANHCAP ewc<>+768(SB) // keeps exp's argument in range on lanes that saturate
#define EXPBIAS ewc<>+800(SB) // 4 × int32 0x3FF

C4(0, $1.4426950408889634073599246810018920)
C4(32, $0.69314718055966295651160180568695068359375)
C4(64, $0.28235290563031577122588448175013436025525412068e-12)
C4(96, $0.0625)
C4(128, $2.4801587301587301587e-5)
C4(160, $1.9841269841269841270e-4)
C4(192, $1.3888888888888888889e-3)
C4(224, $8.3333333333333333333e-3)
C4(256, $4.1666666666666666667e-2)
C4(288, $1.6666666666666666667e-1)
C4(320, $0.5)
C4(352, $1.0)
C4(384, $2.0)
C4(416, $0x7FFFFFFFFFFFFFFF)
C4(448, $0x8000000000000000)
C4(480, $700.0)
C4(512, $-9.64399179425052238628e-1)
C4(544, $-9.92877231001918586564e1)
C4(576, $-1.61468768441708447952e3)
C4(608, $1.12811678491632931402e2)
C4(640, $2.23548839060100448583e3)
C4(672, $4.84406305325125486048e3)
C4(704, $0.625)
C4(736, $44.014845965556527147994)
C4(768, $64.0)
DATA ewc<>+800(SB)/8, $0x000003FF000003FF
DATA ewc<>+808(SB)/8, $0x000003FF000003FF
GLOBL ewc<>(SB), RODATA, $816

// EXP4 replaces the four doubles in Y0 by their exponentials, clobbering Y1,
// Y2 and Y3. It is math.archExp's avxfma branch instruction for instruction —
// the two fused steps of the range reduction, the seven of the polynomial and
// the one that closes the squarings are fused here because they are fused
// there, and nothing else is — on four lanes instead of one: VCVTPD2DQ rounds
// the exponent as CVTSD2SL does (both follow MXCSR), and the shift and
// multiply are its ldexp. archExp's other exits (overflow, a subnormal
// result, Inf, NaN) are not here: the caller sends no |x| above EXPMAX, for
// which the biased exponent stays within [13, 2033].
#define EXP4 \
	VMULPD       LOG2E, Y0, Y1;   \
	VCVTPD2DQY   Y1, X2;          \
	VCVTDQ2PD    X2, Y1;          \
	VFNMADD231PD LN2U, Y1, Y0;    \
	VFNMADD231PD LN2L, Y1, Y0;    \
	VMULPD       SIXTNTH, Y0, Y0; \
	VMOVUPD      EXPC8, Y1;       \
	VFMADD213PD  EXPC7, Y0, Y1;   \
	VFMADD213PD  EXPC6, Y0, Y1;   \
	VFMADD213PD  EXPC5, Y0, Y1;   \
	VFMADD213PD  EXPC4, Y0, Y1;   \
	VFMADD213PD  EXPC3, Y0, Y1;   \
	VFMADD213PD  HALF, Y0, Y1;    \
	VFMADD213PD  ONE, Y0, Y1;     \
	VMULPD       Y1, Y0, Y0;      \
	VADDPD       TWO, Y0, Y1;     \
	VMULPD       Y1, Y0, Y0;      \
	VADDPD       TWO, Y0, Y1;     \
	VMULPD       Y1, Y0, Y0;      \
	VADDPD       TWO, Y0, Y1;     \
	VMULPD       Y1, Y0, Y0;      \
	VADDPD       TWO, Y0, Y1;     \
	VFMADD213PD  ONE, Y1, Y0;     \
	VPADDD       EXPBIAS, X2, X2; \
	VPMOVZXDQ    X2, Y3;          \
	VPSLLQ       $52, Y3, Y3;     \
	VMULPD       Y3, Y0, Y0

// func sigmoidAVX2(dst, src *float64, n int) int
//
// dst[i] = 1/(1+exp(-src[i])) for groups of four, n a multiple of 4. It stops
// in front of the first group with a lane outside |x| ≤ EXPMAX (NaN
// included) and returns the number of elements done.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
sigloop:
	CMPQ AX, CX
	JGE  sigdone
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  ABSMASK, Y0, Y1
	VCMPPD  $18, EXPMAX, Y1, Y1   // |x| <= EXPMAX, false for NaN
	VMOVMSKPD Y1, BX
	CMPL BX, $15
	JNE  sigdone
	VXORPD  SIGNBIT, Y0, Y0
	EXP4
	VADDPD  ONE, Y0, Y0
	VMOVUPD ONE, Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sigloop
sigdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func tanhAVX2(dst, src *float64, n int) int
//
// dst[i] = tanh(src[i]) as math.tanh computes it, for groups of four, n a
// multiple of 4: both of its branches on every lane, each with math.tanh's
// own sequence of separately rounded operations, then its three range tests
// as blends. It stops in front of the first group holding a NaN and returns
// the number of elements done.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VXORPD Y11, Y11, Y11
tanhloop:
	CMPQ AX, CX
	JGE  tanhdone
	VMOVUPD (SI)(AX*8), Y8        // x
	VCMPPD  $3, Y8, Y8, Y1        // unordered with itself: NaN
	VMOVMSKPD Y1, BX
	TESTL BX, BX
	JNE  tanhdone
	VANDPD  ABSMASK, Y8, Y9       // z = |x|
	VANDPD  SIGNBIT, Y8, Y10

	// z >= 0.625: s = exp(2z); 1 - 2/(s+1), negated where x < 0.
	VMINPD  TANHCAP, Y9, Y0
	VMULPD  TWO, Y0, Y0
	EXP4
	VADDPD  ONE, Y0, Y0
	VMOVUPD TWO, Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD ONE, Y1
	VSUBPD  Y0, Y1, Y0
	VXORPD  Y10, Y0, Y0

	// below: s = x·x; x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2).
	VMULPD  Y8, Y8, Y3
	VMULPD  TANHP0, Y3, Y4
	VADDPD  TANHP1, Y4, Y4
	VMULPD  Y3, Y4, Y4
	VADDPD  TANHP2, Y4, Y4
	VADDPD  TANHQ0, Y3, Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  TANHQ1, Y5, Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  TANHQ2, Y5, Y5
	VMULPD  Y3, Y8, Y6
	VMULPD  Y4, Y6, Y6
	VDIVPD  Y5, Y6, Y6
	VADDPD  Y6, Y8, Y6

	VCMPPD  $29, TANHMID, Y9, Y1  // z >= 0.625
	VBLENDVPD Y1, Y0, Y6, Y6
	VCMPPD  $30, TANHSAT, Y9, Y1  // z > 0.5·MAXLOG: ±1
	VORPD   ONE, Y10, Y2
	VBLENDVPD Y1, Y2, Y6, Y6
	VCMPPD  $0, Y11, Y8, Y1       // x == 0: x, which keeps −0
	VBLENDVPD Y1, Y8, Y6, Y6
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tanhloop
tanhdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func addAVX2F64(dst, a, b *float64, n int)
// func addAVX2F32(dst, a, b *float32, n int)
//
// dst[i] = a[i] + b[i] for i < n, n a multiple of the vector's lane count
// (4 or 8). dst may be a or b.
#define ADDLOOP(VADD, LANES, SCALE) \
	XORQ AX, AX;                \
addloop:                        \
	CMPQ AX, CX;                \
	JGE  adddone;               \
	VMOVUPS (SI)(AX*SCALE), Y0; \
	VADD    (DX)(AX*SCALE), Y0, Y0; \
	VMOVUPS Y0, (DI)(AX*SCALE); \
	ADDQ $LANES, AX;            \
	JMP  addloop;               \
adddone:                        \
	VZEROUPPER;                 \
	RET

TEXT ·addAVX2F64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	ADDLOOP(VADDPD, 4, 8)

TEXT ·addAVX2F32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	ADDLOOP(VADDPS, 8, 4)

// func addRowsAVX2F64(dst, src *float64, rows, cols, n int)
// func addRowsAVX2F32(dst, src *float32, rows, cols, n int)
//
// dst[j] += src[r·cols + j] for r = 0 … rows−1 in that order, for j < n, n a
// multiple of the lane count and rows at least 1: a column group stays in one
// register while the rows are added to it.
#define ADDROWS(VADD, LANES, SCALE) \
	IMULQ $SCALE, BX;           \
	XORQ AX, AX;                \
rowscol:                        \
	CMPQ AX, CX;                \
	JGE  rowsdone;              \
	VMOVUPS (DI)(AX*SCALE), Y0; \
	LEAQ (SI)(AX*SCALE), DX;    \
	MOVQ R8, R9;                \
rowsrow:                        \
	VADD (DX), Y0, Y0;          \
	ADDQ BX, DX;                \
	DECQ R9;                    \
	JNE  rowsrow;               \
	VMOVUPS Y0, (DI)(AX*SCALE); \
	ADDQ $LANES, AX;            \
	JMP  rowscol;               \
rowsdone:                       \
	VZEROUPPER;                 \
	RET

TEXT ·addRowsAVX2F64(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), BX
	MOVQ n+32(FP), CX
	ADDROWS(VADDPD, 4, 8)

TEXT ·addRowsAVX2F32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), BX
	MOVQ n+32(FP), CX
	ADDROWS(VADDPS, 8, 4)

// The gate-gradient kernels share one body (lstm_gategrad_amd64.h).

// func lstmGateGradAVX2F64(dgates, dcPrev, act, tanhC, cPrev, dh, dcNext *float64, hid, rows int)
TEXT ·lstmGateGradAVX2F64(SB), NOSPLIT, $0-72
#define LD4(mem, reg) VMOVUPD mem, reg
#define ST4(reg, xreg, mem) VMOVUPD reg, mem
#define ESIZE 8
#define GSHIFT 5
#include "lstm_gategrad_amd64.h"
#undef LD4
#undef ST4
#undef ESIZE
#undef GSHIFT

// func lstmGateGradAVX2F32(dgates, dcPrev, act, tanhC, cPrev, dh, dcNext *float32, hid, rows int)
TEXT ·lstmGateGradAVX2F32(SB), NOSPLIT, $0-72
#define LD4(mem, reg) VCVTPS2PD mem, reg
#define ST4(reg, xreg, mem) VCVTPD2PSY reg, xreg; VMOVUPS xreg, mem
#define ESIZE 4
#define GSHIFT 4
#include "lstm_gategrad_amd64.h"
#undef LD4
#undef ST4
#undef ESIZE
#undef GSHIFT
