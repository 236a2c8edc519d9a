//go:build amd64

#include "textflag.h"

// The convolution's data movement at vector width: copying image rows into
// and out of a zero-padded image, filling both patch operands from it, and
// adding a patch gradient back into one. See im2col.go for the layout (P,
// tap[], pos[]) and for the loop each of these is tested against. None checks
// a bound; widths are whole vectors, counts are at least 1.

// func movePlanesAVX2(dst, src unsafe.Pointer, planes, rows, width, dstStride, srcStride, dstPlane, srcPlane int)
//
// Copies planes × rows runs of width bytes (a multiple of 16): run i of plane
// c from src + c·srcPlane + i·srcStride to dst + c·dstPlane + i·dstStride.
//
//	DI, SI the plane  R10, R11 the row  AX offset in the row  DX width
//	BX last offset a 32-byte move fits at  CX rows left  R12 planes left
TEXT ·movePlanesAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ planes+16(FP), R12
	MOVQ width+32(FP), DX
	MOVQ dstStride+40(FP), R8
	MOVQ srcStride+48(FP), R9
	MOVQ DX, BX
	SUBQ $32, BX
moveplane:
	MOVQ DI, R10
	MOVQ SI, R11
	MOVQ rows+24(FP), CX
moverow:
	XORQ AX, AX
move32:
	CMPQ AX, BX
	JGT  move16
	VMOVUPS (R11)(AX*1), Y0
	VMOVUPS Y0, (R10)(AX*1)
	ADDQ $32, AX
	JMP  move32
move16:
	CMPQ AX, DX
	JGE  movenext
	VMOVUPS (R11)(AX*1), X0
	VMOVUPS X0, (R10)(AX*1)
movenext:
	ADDQ R9, R11
	ADDQ R8, R10
	DECQ CX
	JNE  moverow
	ADDQ dstPlane+56(FP), DI
	ADDQ srcPlane+64(FP), SI
	DECQ R12
	JNE  moveplane
	VZEROUPPER
	RET

// func im2colSegsAVX2(dst, p unsafe.Pointer, tap *int32, ntap int, pos *int32, npanel, posStep, seg, segStride, shift int)
//
// Fills npanel forward panels of ntap rows, front to back. Row q of panel j
// is 64 bytes: 64/seg runs of seg bytes (64, 32 or 16), run s read from
// p + (pos[j·posStep] + tap[q] << shift) + s·segStride.
//
//	DI dst  SI p  R8 tap  R9 ntap  R10 pos (walks)  R11 panels left
//	R12 posStep in bytes  R13 seg  R14 segStride  R15 3·segStride  CX shift
//	BX the panel's base in p  DX q  AX the row's source
TEXT ·im2colSegsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ tap+16(FP), R8
	MOVQ ntap+24(FP), R9
	MOVQ pos+32(FP), R10
	MOVQ npanel+40(FP), R11
	MOVQ posStep+48(FP), R12
	MOVQ seg+56(FP), R13
	MOVQ segStride+64(FP), R14
	MOVQ shift+72(FP), CX
	SHLQ $2, R12
	LEAQ (R14)(R14*2), R15
segpanel:
	MOVLQSX (R10), BX
	SHLQ CX, BX
	ADDQ SI, BX
	XORQ DX, DX
	CMPQ R13, $32
	JEQ  seg32
	JLT  seg16
seg64:
	MOVLQSX (R8)(DX*4), AX
	SHLQ CX, AX
	VMOVUPS (BX)(AX*1), Y0
	VMOVUPS 32(BX)(AX*1), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	INCQ DX
	CMPQ DX, R9
	JLT  seg64
	JMP  segnext
seg32:
	MOVLQSX (R8)(DX*4), AX
	SHLQ CX, AX
	ADDQ BX, AX
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(R14*1), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	INCQ DX
	CMPQ DX, R9
	JLT  seg32
	JMP  segnext
seg16:
	MOVLQSX (R8)(DX*4), AX
	SHLQ CX, AX
	ADDQ BX, AX
	VMOVUPS (AX), X0
	VMOVUPS (AX)(R14*1), X1
	VMOVUPS (AX)(R14*2), X2
	VMOVUPS (AX)(R15*1), X3
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, 32(DI)
	VMOVUPS X3, 48(DI)
	ADDQ $64, DI
	INCQ DX
	CMPQ DX, R9
	JLT  seg16
segnext:
	ADDQ R12, R10
	DECQ R11
	JNE  segpanel
	VZEROUPPER
	RET

// The dW operand's kernels: eight views of P, one per tap, become runs of
// eight — the transposing pack of gemm_amd64.s with the eight rows at eight
// offsets instead of one stride, and the loop over output rows inside.
//
//	R8-R15 the eight views at output row 0   AX offset of the current group
//	DI dst  SI dstStride  BX 3·dstStride  CX groups left in the row  DX rows left
//
// VIEWS turns p in SI and the tap table in AX into the eight views and zeroes
// the offset; go vet reads frame references only inside a TEXT block, so the
// arguments are loaded there.
#define VIEWS(ESCALE) \
	MOVLQSX 0(AX), R8;         \
	MOVLQSX 4(AX), R9;         \
	MOVLQSX 8(AX), R10;        \
	MOVLQSX 12(AX), R11;       \
	MOVLQSX 16(AX), R12;       \
	MOVLQSX 20(AX), R13;       \
	MOVLQSX 24(AX), R14;       \
	MOVLQSX 28(AX), R15;       \
	LEAQ (SI)(R8*ESCALE), R8;  \
	LEAQ (SI)(R9*ESCALE), R9;  \
	LEAQ (SI)(R10*ESCALE), R10; \
	LEAQ (SI)(R11*ESCALE), R11; \
	LEAQ (SI)(R12*ESCALE), R12; \
	LEAQ (SI)(R13*ESCALE), R13; \
	LEAQ (SI)(R14*ESCALE), R14; \
	LEAQ (SI)(R15*ESCALE), R15; \
	XORQ AX, AX

// func im2colT8AVX2F64(dst, p unsafe.Pointer, tap *int32, rows, groups, srcSkip, dstStride int)
//
// For each of rows output rows and each of groups groups of four positions
// in it, stores the eight doubles view[0..7][position] contiguously, one
// position every dstStride bytes. The views are p + 8·tap[i]; srcSkip is
// what takes a view from the end of one output row to the start of the next,
// in bytes.
TEXT ·im2colT8AVX2F64(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ tap+16(FP), AX
	VIEWS(8)
	MOVQ rows+24(FP), DX
	MOVQ dstStride+48(FP), SI
	LEAQ (SI)(SI*2), BX
t8row64:
	MOVQ groups+32(FP), CX
t8col64:
	// Halves of two views share a register — view i low, view i+2 high — so
	// that one unpack per pair of positions finishes the transpose: the
	// 128-bit inserts are loads, not shuffles.
	VMOVUPD (R8)(AX*1), X0
	VINSERTF128 $1, (R10)(AX*1), Y0, Y0     // v0[0:2] | v2[0:2]
	VMOVUPD (R9)(AX*1), X1
	VINSERTF128 $1, (R11)(AX*1), Y1, Y1     // v1[0:2] | v3[0:2]
	VMOVUPD (R12)(AX*1), X2
	VINSERTF128 $1, (R14)(AX*1), Y2, Y2     // v4 | v6
	VMOVUPD (R13)(AX*1), X3
	VINSERTF128 $1, (R15)(AX*1), Y3, Y3     // v5 | v7
	VMOVUPD 16(R8)(AX*1), X4
	VINSERTF128 $1, 16(R10)(AX*1), Y4, Y4   // v0[2:4] | v2[2:4]
	VMOVUPD 16(R9)(AX*1), X5
	VINSERTF128 $1, 16(R11)(AX*1), Y5, Y5
	VMOVUPD 16(R12)(AX*1), X6
	VINSERTF128 $1, 16(R14)(AX*1), Y6, Y6
	VMOVUPD 16(R13)(AX*1), X7
	VINSERTF128 $1, 16(R15)(AX*1), Y7, Y7
	VUNPCKLPD Y1, Y0, Y8       // v0..v3 at position 0
	VUNPCKLPD Y3, Y2, Y9       // v4..v7 at position 0
	VUNPCKHPD Y1, Y0, Y10      // position 1
	VUNPCKHPD Y3, Y2, Y11
	VUNPCKLPD Y5, Y4, Y12      // position 2
	VUNPCKLPD Y7, Y6, Y13
	VUNPCKHPD Y5, Y4, Y14      // position 3
	VUNPCKHPD Y7, Y6, Y15
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, (DI)(SI*1)
	VMOVUPD Y11, 32(DI)(SI*1)
	VMOVUPD Y12, (DI)(SI*2)
	VMOVUPD Y13, 32(DI)(SI*2)
	VMOVUPD Y14, (DI)(BX*1)
	VMOVUPD Y15, 32(DI)(BX*1)
	LEAQ (DI)(SI*4), DI
	ADDQ $32, AX
	DECQ CX
	JNE  t8col64
	ADDQ srcSkip+40(FP), AX
	DECQ DX
	JNE  t8row64
	VZEROUPPER
	RET

// func im2colT8AVX2F32(dst, p unsafe.Pointer, tap *int32, rows, groups, srcSkip, dstStride int)
//
// The float32 form: groups of eight positions, eight floats per run.
TEXT ·im2colT8AVX2F32(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ tap+16(FP), AX
	VIEWS(4)
	MOVQ rows+24(FP), DX
	MOVQ dstStride+48(FP), SI
	LEAQ (SI)(SI*2), BX
t8row32:
	MOVQ groups+32(FP), CX
t8col32:
	// View i low, view i+4 high: two unpacks and two shuffles per four
	// positions finish the transpose.
	VMOVUPS (R8)(AX*1), X0
	VINSERTF128 $1, (R12)(AX*1), Y0, Y0     // v0[0:4] | v4[0:4]
	VMOVUPS (R9)(AX*1), X1
	VINSERTF128 $1, (R13)(AX*1), Y1, Y1     // v1 | v5
	VMOVUPS (R10)(AX*1), X2
	VINSERTF128 $1, (R14)(AX*1), Y2, Y2     // v2 | v6
	VMOVUPS (R11)(AX*1), X3
	VINSERTF128 $1, (R15)(AX*1), Y3, Y3     // v3 | v7
	VMOVUPS 16(R8)(AX*1), X4
	VINSERTF128 $1, 16(R12)(AX*1), Y4, Y4   // v0[4:8] | v4[4:8]
	VMOVUPS 16(R9)(AX*1), X5
	VINSERTF128 $1, 16(R13)(AX*1), Y5, Y5
	VMOVUPS 16(R10)(AX*1), X6
	VINSERTF128 $1, 16(R14)(AX*1), Y6, Y6
	VMOVUPS 16(R11)(AX*1), X7
	VINSERTF128 $1, 16(R15)(AX*1), Y7, Y7
	VUNPCKLPS Y1, Y0, Y8       // v0[0] v1[0] v0[1] v1[1] | v4[0] v5[0] v4[1] v5[1]
	VUNPCKHPS Y1, Y0, Y9       // v0[2] v1[2] v0[3] v1[3] | …
	VUNPCKLPS Y3, Y2, Y10      // v2[0] v3[0] v2[1] v3[1] | v6 … v7 …
	VUNPCKHPS Y3, Y2, Y11
	VSHUFPS $0x44, Y10, Y8, Y12    // v0..v7 at position 0
	VSHUFPS $0xEE, Y10, Y8, Y13    // 1
	VSHUFPS $0x44, Y11, Y9, Y14    // 2
	VSHUFPS $0xEE, Y11, Y9, Y15    // 3
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, (DI)(SI*1)
	VMOVUPS Y14, (DI)(SI*2)
	VMOVUPS Y15, (DI)(BX*1)
	LEAQ (DI)(SI*4), DI
	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPS Y7, Y6, Y10
	VUNPCKHPS Y7, Y6, Y11
	VSHUFPS $0x44, Y10, Y8, Y12    // 4
	VSHUFPS $0xEE, Y10, Y8, Y13    // 5
	VSHUFPS $0x44, Y11, Y9, Y14    // 6
	VSHUFPS $0xEE, Y11, Y9, Y15    // 7
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, (DI)(SI*1)
	VMOVUPS Y14, (DI)(SI*2)
	VMOVUPS Y15, (DI)(BX*1)
	LEAQ (DI)(SI*4), DI
	ADDQ $32, AX
	DECQ CX
	JNE  t8col32
	ADDQ srcSkip+40(FP), AX
	DECQ DX
	JNE  t8row32
	VZEROUPPER
	RET

// func col2imAddAVX2F64(pg, col unsafe.Pointer, tap *int32, ntap, rows, rowBytes, dstStride int)
// func col2imAddAVX2F32(pg, col unsafe.Pointer, tap *int32, ntap, rows, rowBytes, dstStride int)
//
// For q = ntap−1 down to 0, adds block q of col — rows runs of rowBytes bytes
// (a multiple of 32), contiguous — to the rows of pg that start at
// pg + tap[q]·size and lie dstStride bytes apart: pg[…] = pg[…] + col[…].
//
//	DI pg  SI block q of col  R8 tap  R9 q  R10 rows  R11 rowBytes
//	R12 dstStride  R13 block bytes  BX dst row  DX src row  CX rows left
#define COL2IM(VADD, ESCALE) \
	MOVQ R10, R13;              \
	IMULQ R11, R13;             \
	MOVQ R9, AX;                \
	DECQ AX;                    \
	IMULQ R13, AX;              \
	ADDQ AX, SI;                \
c2itap:                         \
	DECQ R9;                    \
	JLT  c2idone;               \
	MOVLQSX (R8)(R9*4), BX;     \
	LEAQ (DI)(BX*ESCALE), BX;   \
	MOVQ SI, DX;                \
	MOVQ R10, CX;               \
c2irow:                         \
	XORQ AX, AX;                \
c2ivec:                         \
	VMOVUPS (BX)(AX*1), Y0;     \
	VADD    (DX)(AX*1), Y0, Y0; \
	VMOVUPS Y0, (BX)(AX*1);     \
	ADDQ $32, AX;               \
	CMPQ AX, R11;               \
	JLT  c2ivec;                \
	ADDQ R12, BX;               \
	ADDQ R11, DX;               \
	DECQ CX;                    \
	JNE  c2irow;                \
	SUBQ R13, SI;               \
	JMP  c2itap;                \
c2idone:                        \
	VZEROUPPER;                 \
	RET

TEXT ·col2imAddAVX2F64(SB), NOSPLIT, $0-56
	MOVQ pg+0(FP), DI
	MOVQ col+8(FP), SI
	MOVQ tap+16(FP), R8
	MOVQ ntap+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ rowBytes+40(FP), R11
	MOVQ dstStride+48(FP), R12
	COL2IM(VADDPD, 8)

TEXT ·col2imAddAVX2F32(SB), NOSPLIT, $0-56
	MOVQ pg+0(FP), DI
	MOVQ col+8(FP), SI
	MOVQ tap+16(FP), R8
	MOVQ ntap+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ rowBytes+40(FP), R11
	MOVQ dstStride+48(FP), R12
	COL2IM(VADDPS, 4)
