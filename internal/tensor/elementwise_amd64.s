//go:build amd64

#include "textflag.h"

// Elementwise kernels at vector width: sigmoid and tanh over float64 that
// equal 1/(1+math.Exp(-x)) and math.Tanh(x) in every bit, the LSTM cell
// forward built from the same instructions, the sum of two slices, and the
// cell's gate gradients. See elementwise.go for the contract and the
// fall-back rule.

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

// SIGMOID4(x) sets Y0 to 1/(1+exp(-x)) on the four lanes of x, clobbering
// Y1–Y3. Every lane of x must be within |x| ≤ EXPMAX.
#define SIGMOID4(x) \
	VXORPD  SIGNBIT, x, Y0; \
	EXP4;                   \
	VADDPD  ONE, Y0, Y0;    \
	VMOVUPD ONE, Y1;        \
	VDIVPD  Y0, Y1, Y0

// TANHEXP sets Y0 to math.tanh's branch for |x| ≥ 0.625 — s = exp(2z);
// 1 − 2/(s+1), negated where x < 0 — from z = |x| in Y9 and x's sign bit in
// Y10, clobbering Y1–Y3. z is capped at TANHCAP first, which changes only
// lanes the saturation blend replaces.
#define TANHEXP \
	VMINPD  TANHCAP, Y9, Y0; \
	VMULPD  TWO, Y0, Y0;     \
	EXP4;                    \
	VADDPD  ONE, Y0, Y0;     \
	VMOVUPD TWO, Y1;         \
	VDIVPD  Y0, Y1, Y0;      \
	VMOVUPD ONE, Y1;         \
	VSUBPD  Y0, Y1, Y0;      \
	VXORPD  Y10, Y0, Y0

// TANHPOLY sets Y6 to math.tanh's branch below 0.625 on x in Y8 — s = x·x;
// x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2) — clobbering Y3–Y5.
#define TANHPOLY \
	VMULPD  Y8, Y8, Y3;     \
	VMULPD  TANHP0, Y3, Y4; \
	VADDPD  TANHP1, Y4, Y4; \
	VMULPD  Y3, Y4, Y4;     \
	VADDPD  TANHP2, Y4, Y4; \
	VADDPD  TANHQ0, Y3, Y5; \
	VMULPD  Y3, Y5, Y5;     \
	VADDPD  TANHQ1, Y5, Y5; \
	VMULPD  Y3, Y5, Y5;     \
	VADDPD  TANHQ2, Y5, Y5; \
	VMULPD  Y3, Y8, Y6;     \
	VMULPD  Y4, Y6, Y6;     \
	VDIVPD  Y5, Y6, Y6;     \
	VADDPD  Y6, Y8, Y6

// TANH4 sets Y6 to math.tanh(x) on the four lanes of x in Y8, none of them a
// NaN: each lane takes math.tanh's branch for its |x|, with that branch's own
// sequence of separately rounded operations, then its range tests as blends —
// ±1 above 0.5·MAXLOG, x itself (which keeps −0) at 0. A branch no lane takes
// is not computed. It needs Y11 = 0 and clobbers Y0–Y5, Y7, Y9, Y10 and the
// general register tmp; the labels are the caller's, distinct per use.
#define TANH4(tmp, above, sat, below, zero) \
	VANDPD    ABSMASK, Y8, Y9;      \
	VANDPD    SIGNBIT, Y8, Y10;     \
	VCMPPD    $29, TANHMID, Y9, Y7; \
	VMOVMSKPD Y7, tmp;              \
	TESTL     tmp, tmp;             \
	JE        below;                \
	TANHEXP;                        \
	CMPL      tmp, $15;             \
	JE        above;                \
	TANHPOLY;                       \
	VBLENDVPD Y7, Y0, Y6, Y6;       \
	JMP       sat;                  \
above:                              \
	VMOVAPD   Y0, Y6;               \
sat:                                \
	VCMPPD    $30, TANHSAT, Y9, Y1; \
	VORPD     ONE, Y10, Y2;         \
	VBLENDVPD Y1, Y2, Y6, Y6;       \
	JMP       zero;                 \
below:                              \
	TANHPOLY;                       \
zero:                               \
	VCMPPD    $0, Y11, Y8, Y1;      \
	VBLENDVPD Y1, Y8, Y6, Y6

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
	VMOVUPD (SI)(AX*8), Y4
	VANDPD  ABSMASK, Y4, Y1
	VCMPPD  $18, EXPMAX, Y1, Y1   // |x| <= EXPMAX, false for NaN
	VMOVMSKPD Y1, BX
	CMPL BX, $15
	JNE  sigdone
	SIGMOID4(Y4)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sigloop
sigdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func tanhAVX2(dst, src *float64, n int) int
//
// dst[i] = tanh(src[i]) as math.tanh computes it (TANH4), for groups of
// four, n a multiple of 4. It stops in front of the first group holding a
// NaN and returns the number of elements done.
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
	TANH4(BX, tanhabove, tanhsat, tanhbelow, tanhzero)
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

// The cell kernels share one body (lstm_cell_amd64.h).

// func lstmCellAVX2F64(act, hh, bias, cPrev, c, tanhC, h *float64, hid, rows, g0 int) int
TEXT ·lstmCellAVX2F64(SB), NOSPLIT, $536-88
#define PREACT(ma, mh, mb, reg) VMOVUPD ma, reg; VADDPD mh, reg, reg; VADDPD mb, reg, reg
#define LD4(mem, reg) VMOVUPD mem, reg
#define ST4(reg, xreg, mem) VMOVUPD reg, mem
#define ESIZE 8
#define GSHIFT 5
#define GSCALE 2
#include "lstm_cell_amd64.h"
#undef PREACT
#undef LD4
#undef ST4
#undef ESIZE
#undef GSHIFT
#undef GSCALE

// func lstmCellAVX2F32(act, hh, bias, cPrev, c, tanhC, h *float32, hid, rows, g0 int) int
//
// The sum is float32, as the element type's addition rounds it; the rest is
// float64, rounded to float32 on store.
TEXT ·lstmCellAVX2F32(SB), NOSPLIT, $536-88
#define PREACT(ma, mh, mb, reg) VMOVUPS ma, X0; VADDPS mh, X0, X0; VADDPS mb, X0, X0; VCVTPS2PD X0, reg
#define LD4(mem, reg) VCVTPS2PD mem, reg
#define ST4(reg, xreg, mem) VCVTPD2PSY reg, xreg; VMOVUPS xreg, mem
#define ESIZE 4
#define GSHIFT 4
#define GSCALE 1
#include "lstm_cell_amd64.h"
#undef PREACT
#undef LD4
#undef ST4
#undef ESIZE
#undef GSHIFT
#undef GSCALE

// The layers between the products at vector width: ReLU with its mask, the
// mask's gate, 2×2 max pooling with its argmax, and the plain SGD update.
// elementwise.go has each one's contract and the loop it is tested against.

DATA lyc<>+0(SB)/8, $0x7FFFFFFF7FFFFFFF  // |x| of eight floats
DATA lyc<>+8(SB)/8, $0x7FFFFFFF7FFFFFFF
DATA lyc<>+16(SB)/8, $0x7FFFFFFF7FFFFFFF
DATA lyc<>+24(SB)/8, $0x7FFFFFFF7FFFFFFF
DATA lyc<>+32(SB)/8, $0x0101010101010101  // true, sixteen times
DATA lyc<>+40(SB)/8, $0x0101010101010101
DATA lyc<>+48(SB)/8, $0                   // input offsets of a group's outputs, in the
DATA lyc<>+56(SB)/8, $4                   // lane order the de-interleave leaves them:
DATA lyc<>+64(SB)/8, $2                   // doubles 0 2 1 3 …
DATA lyc<>+72(SB)/8, $6
DATA lyc<>+80(SB)/8, $0x0000000200000000  // … floats 0 1 2 3
DATA lyc<>+88(SB)/8, $0x0000000600000004
GLOBL lyc<>(SB), RODATA, $96

#define ABSMASK32 lyc<>+0(SB)
#define TRUES     lyc<>+32(SB)
#define POOLIDX64 lyc<>+48(SB)
#define POOLIDX32 lyc<>+80(SB)

// func reluAVX2F64(dst, src *float64, mask *bool, n int)
//
// dst[i] = max(src[i], 0) as the compiler's max has it — +0 for −0, a NaN
// kept with its payload and a cleared sign: VMAXPD returns its second source
// on a NaN or a tie, and the sign goes afterwards — and, unless mask is nil,
// mask[i] = !(src[i] <= 0); n a multiple of 4.
TEXT ·reluAVX2F64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD Y15, Y15, Y15
	VMOVUPD ABSMASK, Y14
	VMOVDQU TRUES, X13
	XORQ AX, AX
relu64:
	CMPQ AX, CX
	JGE  relu64done
	VMOVUPD (SI)(AX*8), Y0
	VMAXPD  Y0, Y15, Y1
	VANDPD  Y14, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	TESTQ DX, DX
	JEQ  relu64next
	VCMPPD  $0x16, Y15, Y0, Y2    // not (x <= 0), true for a NaN
	VEXTRACTF128 $1, Y2, X3
	VSHUFPS $0x88, X3, X2, X2     // the four low halves
	VPACKSSDW X2, X2, X2
	VPACKSSWB X2, X2, X2
	VPAND   X13, X2, X2
	VMOVD   X2, (DX)(AX*1)
relu64next:
	ADDQ $4, AX
	JMP  relu64
relu64done:
	VZEROUPPER
	RET

// func reluAVX2F32(dst, src *float32, mask *bool, n int)
//
// The float32 form; n a multiple of 8.
TEXT ·reluAVX2F32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPS Y15, Y15, Y15
	VMOVUPS ABSMASK32, Y14
	VMOVDQU TRUES, X13
	XORQ AX, AX
relu32:
	CMPQ AX, CX
	JGE  relu32done
	VMOVUPS (SI)(AX*4), Y0
	VMAXPS  Y0, Y15, Y1
	VANDPS  Y14, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	TESTQ DX, DX
	JEQ  relu32next
	VCMPPS  $0x16, Y15, Y0, Y2
	VEXTRACTF128 $1, Y2, X3
	VPACKSSDW X3, X2, X2
	VPACKSSWB X2, X2, X2
	VPAND   X13, X2, X2
	VMOVQ   X2, (DX)(AX*1)
relu32next:
	ADDQ $8, AX
	JMP  relu32
relu32done:
	VZEROUPPER
	RET

// func gateAVX2F64(dst, src *float64, mask *bool, n int)
// func gateAVX2F32(dst, src *float32, mask *bool, n int)
//
// dst[i] = src[i] where mask[i], else +0, by and-ing the value's bits with
// 0 − mask[i] widened to the lane; n a multiple of 4 (8).
TEXT ·gateAVX2F64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), DX
	MOVQ n+24(FP), CX
	VPXOR Y15, Y15, Y15
	XORQ AX, AX
gate64:
	CMPQ AX, CX
	JGE  gate64done
	VPMOVZXBQ (DX)(AX*1), Y1
	VPSUBQ  Y1, Y15, Y1
	VPAND   (SI)(AX*8), Y1, Y1
	VMOVDQU Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  gate64
gate64done:
	VZEROUPPER
	RET

TEXT ·gateAVX2F32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ mask+16(FP), DX
	MOVQ n+24(FP), CX
	VPXOR Y15, Y15, Y15
	XORQ AX, AX
gate32:
	CMPQ AX, CX
	JGE  gate32done
	VPMOVZXBD (DX)(AX*1), Y1
	VPSUBD  Y1, Y15, Y1
	VPAND   (SI)(AX*4), Y1, Y1
	VMOVDQU Y1, (DI)(AX*4)
	ADDQ $8, AX
	JMP  gate32
gate32done:
	VZEROUPPER
	RET

// func maxPool2x2AVX2F64(ys *float64, am *int32, xs *float64, rows, groups, w, ow, base int)
//
// One channel of 2×2, stride-2 max pooling: for each of rows output rows and
// each of groups groups of four outputs in it, the two input rows are split
// into even and odd columns and the window is reduced by the scalar loop's
// chain — top-left, then top-right, bottom-left, bottom-right, each taking
// over only if greater (GT_OQ: never on a tie, never a NaN) — with the
// winner's input offset blended alongside. Input rows are w elements long,
// output rows ow; the offsets count from base at the channel's first pixel;
// am may be nil.
//
//	DI ys row  R8 am row  SI top input row  BX bottom input row  R9 w in bytes
//	R11 2w in bytes  R12 ow in bytes  R13 ow in am bytes  R14 offset of the
//	row pair  R15 2w  AX input offset  DX output index  CX groups left  R10 rows left
//	Y12 offsets of the group's top-left pixels  Y13 1  Y14 w  Y15 w+1  Y11 8
TEXT ·maxPool2x2AVX2F64(SB), NOSPLIT, $0-64
	MOVQ ys+0(FP), DI
	MOVQ am+8(FP), R8
	MOVQ xs+16(FP), SI
	MOVQ rows+24(FP), R10
	MOVQ w+40(FP), R9
	MOVQ ow+48(FP), R12
	MOVQ base+56(FP), R14
	MOVQ $1, AX
	VMOVQ AX, X13
	VPBROADCASTQ X13, Y13
	VMOVQ R9, X14
	VPBROADCASTQ X14, Y14
	VPADDQ Y13, Y14, Y15
	MOVQ $8, AX
	VMOVQ AX, X11
	VPBROADCASTQ X11, Y11
	LEAQ (R9)(R9*1), R15
	SHLQ $3, R9
	LEAQ (R9)(R9*1), R11
	LEAQ (R12*4), R13
	SHLQ $3, R12
pool64row:
	VMOVQ R14, X12
	VPBROADCASTQ X12, Y12
	VPADDQ POOLIDX64, Y12, Y12
	LEAQ (SI)(R9*1), BX
	XORQ AX, AX
	XORQ DX, DX
	MOVQ groups+32(FP), CX
pool64col:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y1
	VMOVUPD (BX)(AX*1), Y2
	VMOVUPD 32(BX)(AX*1), Y3
	VUNPCKLPD Y1, Y0, Y4          // top-left of outputs 0 2 1 3: the best so far
	VUNPCKHPD Y1, Y0, Y5          // top-right
	VUNPCKLPD Y3, Y2, Y6          // bottom-left
	VUNPCKHPD Y3, Y2, Y7          // bottom-right
	VCMPPD    $0x1E, Y4, Y5, Y9
	VBLENDVPD Y9, Y5, Y4, Y4
	VPADDQ    Y13, Y12, Y10
	VBLENDVPD Y9, Y10, Y12, Y8
	VCMPPD    $0x1E, Y4, Y6, Y9
	VBLENDVPD Y9, Y6, Y4, Y4
	VPADDQ    Y14, Y12, Y10
	VBLENDVPD Y9, Y10, Y8, Y8
	VCMPPD    $0x1E, Y4, Y7, Y9
	VBLENDVPD Y9, Y7, Y4, Y4
	VPADDQ    Y15, Y12, Y10
	VBLENDVPD Y9, Y10, Y8, Y8
	VPERMPD   $0xD8, Y4, Y4       // back to 0 1 2 3
	VMOVUPD   Y4, (DI)(DX*8)
	TESTQ R8, R8
	JEQ  pool64next
	VPERMPD   $0xD8, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VSHUFPS   $0x88, X9, X8, X8   // the four low halves
	VMOVUPS   X8, (R8)(DX*4)
pool64next:
	VPADDQ Y11, Y12, Y12
	ADDQ $64, AX
	ADDQ $4, DX
	DECQ CX
	JNE  pool64col
	ADDQ R11, SI
	ADDQ R12, DI
	TESTQ R8, R8
	JEQ  pool64noam
	ADDQ R13, R8
pool64noam:
	ADDQ R15, R14
	DECQ R10
	JNE  pool64row
	VZEROUPPER
	RET

// func maxPool2x2AVX2F32(ys *float32, am *int32, xs *float32, rows, groups, w, ow, base int)
//
// The float32 form, still four outputs to a group: the model's second pooling
// layer has four to a row. Registers as above with 128-bit vectors, offsets
// in 32-bit lanes, the even/odd split by VSHUFPS, which keeps the order.
//
//	R9, R11, R12 in float bytes; X12 offsets  X13 1  X14 w  X15 w+1  X11 8
TEXT ·maxPool2x2AVX2F32(SB), NOSPLIT, $0-64
	MOVQ ys+0(FP), DI
	MOVQ am+8(FP), R8
	MOVQ xs+16(FP), SI
	MOVQ rows+24(FP), R10
	MOVQ w+40(FP), R9
	MOVQ ow+48(FP), R12
	MOVQ base+56(FP), R14
	MOVQ $1, AX
	VMOVQ AX, X13
	VPBROADCASTD X13, X13
	VMOVQ R9, X14
	VPBROADCASTD X14, X14
	VPADDD X13, X14, X15
	MOVQ $8, AX
	VMOVQ AX, X11
	VPBROADCASTD X11, X11
	LEAQ (R9)(R9*1), R15
	SHLQ $2, R9
	LEAQ (R9)(R9*1), R11
	SHLQ $2, R12
pool32row:
	VMOVQ R14, X12
	VPBROADCASTD X12, X12
	VPADDD POOLIDX32, X12, X12
	LEAQ (SI)(R9*1), BX
	XORQ AX, AX
	XORQ DX, DX
	MOVQ groups+32(FP), CX
pool32col:
	VMOVUPS (SI)(AX*1), X0
	VMOVUPS 16(SI)(AX*1), X1
	VMOVUPS (BX)(AX*1), X2
	VMOVUPS 16(BX)(AX*1), X3
	VSHUFPS $0x88, X1, X0, X4     // top-left: the best so far
	VSHUFPS $0xDD, X1, X0, X5     // top-right
	VSHUFPS $0x88, X3, X2, X6     // bottom-left
	VSHUFPS $0xDD, X3, X2, X7     // bottom-right
	VCMPPS    $0x1E, X4, X5, X9
	VBLENDVPS X9, X5, X4, X4
	VPADDD    X13, X12, X10
	VBLENDVPS X9, X10, X12, X8
	VCMPPS    $0x1E, X4, X6, X9
	VBLENDVPS X9, X6, X4, X4
	VPADDD    X14, X12, X10
	VBLENDVPS X9, X10, X8, X8
	VCMPPS    $0x1E, X4, X7, X9
	VBLENDVPS X9, X7, X4, X4
	VPADDD    X15, X12, X10
	VBLENDVPS X9, X10, X8, X8
	VMOVUPS   X4, (DI)(DX*4)
	TESTQ R8, R8
	JEQ  pool32next
	VMOVDQU   X8, (R8)(DX*4)
pool32next:
	VPADDD X11, X12, X12
	ADDQ $32, AX
	ADDQ $4, DX
	DECQ CX
	JNE  pool32col
	ADDQ R11, SI
	ADDQ R12, DI
	TESTQ R8, R8
	JEQ  pool32noam
	ADDQ R12, R8
pool32noam:
	ADDQ R15, R14
	DECQ R10
	JNE  pool32row
	RET

// SGDUPDATE turns the weights in Y0 and their gradients in Y2, both as
// doubles, into the updated weights in Y0: w − lr·(grad + wd·w) with lr in Y14
// and wd in Y15, the two products, the sum and the difference each rounded on
// its own. Both dtypes share it, so the float64 test covers the arithmetic of
// the float32 kernel too — whose own outputs would hide a fused step behind
// their rounding to float all but once in 2²⁹ weights.
#define SGDUPDATE \
	VMULPD Y0, Y15, Y1; \
	VADDPD Y1, Y2, Y1;  \
	VMULPD Y1, Y14, Y1; \
	VSUBPD Y1, Y0, Y0

// func sgdStepAVX2F64(w, grad *float64, n int, lr, wd float64)
//
// w[i] = w[i] − lr·(grad[i] + wd·w[i]); n a multiple of 4.
TEXT ·sgdStepAVX2F64(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD lr+24(FP), Y14
	VBROADCASTSD wd+32(FP), Y15
	XORQ AX, AX
sgd64:
	CMPQ AX, CX
	JGE  sgd64done
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y2
	SGDUPDATE
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sgd64
sgd64done:
	VZEROUPPER
	RET

// func sgdStepAVX2F32(w, grad *float32, n int, lr, wd float64)
//
// The float32 form: four weights at a time widened to doubles, the same
// arithmetic, and each result rounded once to a float on store.
TEXT ·sgdStepAVX2F32(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD lr+24(FP), Y14
	VBROADCASTSD wd+32(FP), Y15
	XORQ AX, AX
sgd32:
	CMPQ AX, CX
	JGE  sgd32done
	VCVTPS2PD (DI)(AX*4), Y0
	VCVTPS2PD (SI)(AX*4), Y2
	SGDUPDATE
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP  sgd32
sgd32done:
	VZEROUPPER
	RET
