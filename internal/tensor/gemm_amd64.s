//go:build amd64

#include "textflag.h"

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The four panel kernels share one signature and one body
// (gemm_panel_amd64.h); the defines bind the dtype's instructions and element
// size, and say whether the panel's upper half is computed.

#define BCAST VBROADCASTSD
#define VMUL  VMULPD
#define VADD  VADDPD
#define VMOVU VMOVUPD
#define ESHIFT $3

// func gemmPanelAVX2F64(m, k int, a *float64, ars, aps int, b, c *float64, cs int)
TEXT ·gemmPanelAVX2F64(SB), NOSPLIT, $0-64
#define HI(op, a, b, c) op a, b, c
#define HI2(op, a, b) op a, b
#include "gemm_panel_amd64.h"
#undef HI
#undef HI2

// func gemmHalfPanelAVX2F64(m, k int, a *float64, ars, aps int, b, c *float64, cs int)
TEXT ·gemmHalfPanelAVX2F64(SB), NOSPLIT, $0-64
#define HI(op, a, b, c)
#define HI2(op, a, b)
#include "gemm_panel_amd64.h"
#undef HI
#undef HI2

#undef BCAST
#undef VMUL
#undef VADD
#undef VMOVU
#undef ESHIFT
#define BCAST VBROADCASTSS
#define VMUL  VMULPS
#define VADD  VADDPS
#define VMOVU VMOVUPS
#define ESHIFT $2

// func gemmPanelAVX2F32(m, k int, a *float32, ars, aps int, b, c *float32, cs int)
TEXT ·gemmPanelAVX2F32(SB), NOSPLIT, $0-64
#define HI(op, a, b, c) op a, b, c
#define HI2(op, a, b) op a, b
#include "gemm_panel_amd64.h"
#undef HI
#undef HI2

// func gemmHalfPanelAVX2F32(m, k int, a *float32, ars, aps int, b, c *float32, cs int)
TEXT ·gemmHalfPanelAVX2F32(SB), NOSPLIT, $0-64
#define HI(op, a, b, c)
#define HI2(op, a, b)
#include "gemm_panel_amd64.h"
#undef HI
#undef HI2

// func copyBlocksAVX2(dst, src unsafe.Pointer, n, dstStride, srcStride int)
//
// Copies n 64-byte blocks (one panel row at either dtype), block i from
// src + i·srcStride to dst + i·dstStride, strides in bytes.
TEXT ·copyBlocksAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dstStride+24(FP), R8
	MOVQ srcStride+32(FP), R9
	TESTQ CX, CX
	JLE  blocksdone
blocks:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNE  blocks
	VZEROUPPER
blocksdone:
	RET

// func copyBlocksMaskedAVX2(dst, src unsafe.Pointer, n, dstStride, srcStride int, mask *[16]int32)
//
// As copyBlocksAVX2, but only the 4-byte lanes whose mask word is negative
// are read; the others are stored as zero. A masked-out lane is not accessed,
// so the source may end with the last selected lane.
TEXT ·copyBlocksMaskedAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dstStride+24(FP), R8
	MOVQ srcStride+32(FP), R9
	MOVQ mask+40(FP), AX
	TESTQ CX, CX
	JLE  maskeddone
	VMOVDQU (AX), Y2
	VMOVDQU 32(AX), Y3
maskedblocks:
	VMASKMOVPS (SI), Y2, Y0
	VMASKMOVPS 32(SI), Y3, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNE  maskedblocks
	VZEROUPPER
maskeddone:
	RET

// func interleave8AVX2F64(dst, src unsafe.Pointer, n, dstStride, rowStride int)
//
// src holds eight rows, rowStride bytes apart; for p < n (a multiple of 4)
// the eight doubles row[0..7][p] are stored contiguously at dst + p·dstStride.
// Each step transposes two 4×4 blocks in registers.
TEXT ·interleave8AVX2F64(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dstStride+24(FP), R8
	MOVQ rowStride+32(FP), R9
	SHRQ $2, CX
	JE   t64done
	LEAQ (R9)(R9*2), R10       // 3·rowStride
	LEAQ (SI)(R9*4), BX        // row 4
	LEAQ (R8)(R8*2), R11       // 3·dstStride
t64loop:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R9*1), Y1
	VMOVUPD (SI)(R9*2), Y2
	VMOVUPD (SI)(R10*1), Y3
	VMOVUPD (BX), Y4
	VMOVUPD (BX)(R9*1), Y5
	VMOVUPD (BX)(R9*2), Y6
	VMOVUPD (BX)(R10*1), Y7
	VUNPCKLPD Y1, Y0, Y8       // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD Y1, Y0, Y9       // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD Y3, Y2, Y10
	VUNPCKHPD Y3, Y2, Y11
	VUNPCKLPD Y5, Y4, Y12
	VUNPCKHPD Y5, Y4, Y13
	VUNPCKLPD Y7, Y6, Y14
	VUNPCKHPD Y7, Y6, Y15
	VPERM2F128 $0x20, Y10, Y8, Y0   // r0..r3 at p
	VPERM2F128 $0x20, Y14, Y12, Y1  // r4..r7 at p
	VPERM2F128 $0x20, Y11, Y9, Y2   // p+1
	VPERM2F128 $0x20, Y15, Y13, Y3
	VPERM2F128 $0x31, Y10, Y8, Y4   // p+2
	VPERM2F128 $0x31, Y14, Y12, Y5
	VPERM2F128 $0x31, Y11, Y9, Y6   // p+3
	VPERM2F128 $0x31, Y15, Y13, Y7
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R11*1)
	VMOVUPD Y7, 32(DI)(R11*1)
	ADDQ $32, SI
	ADDQ $32, BX
	LEAQ (DI)(R8*4), DI
	DECQ CX
	JNE  t64loop
	VZEROUPPER
t64done:
	RET

// func interleave8AVX2F32(dst, src unsafe.Pointer, n, dstStride, rowStride int)
//
// The float32 form: for p < n (a multiple of 8) the eight floats
// row[0..7][p] are stored contiguously at dst + p·dstStride. Each step is an
// 8×8 transpose in registers.
TEXT ·interleave8AVX2F32(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dstStride+24(FP), R8
	MOVQ rowStride+32(FP), R9
	SHRQ $3, CX
	JE   t32done
	LEAQ (R9)(R9*2), R10       // 3·rowStride
	LEAQ (SI)(R9*4), BX        // row 4
	LEAQ (R8)(R8*2), R11       // 3·dstStride
t32loop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R9*1), Y1
	VMOVUPS (SI)(R9*2), Y2
	VMOVUPS (SI)(R10*1), Y3
	VMOVUPS (BX), Y4
	VMOVUPS (BX)(R9*1), Y5
	VMOVUPS (BX)(R9*2), Y6
	VMOVUPS (BX)(R10*1), Y7
	VUNPCKLPS Y1, Y0, Y8       // r0[0] r1[0] r0[1] r1[1] | same at +4
	VUNPCKHPS Y1, Y0, Y9       // r0[2] r1[2] r0[3] r1[3]
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0   // r0..r3 at p   | p+4
	VSHUFPS $0xEE, Y10, Y8, Y1   // r0..r3 at p+1 | p+5
	VSHUFPS $0x44, Y11, Y9, Y2   // p+2 | p+6
	VSHUFPS $0xEE, Y11, Y9, Y3   // p+3 | p+7
	VSHUFPS $0x44, Y14, Y12, Y4  // r4..r7 at p   | p+4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8    // p
	VPERM2F128 $0x20, Y5, Y1, Y9    // p+1
	VPERM2F128 $0x20, Y6, Y2, Y10   // p+2
	VPERM2F128 $0x20, Y7, Y3, Y11   // p+3
	VPERM2F128 $0x31, Y4, Y0, Y12   // p+4
	VPERM2F128 $0x31, Y5, Y1, Y13   // p+5
	VPERM2F128 $0x31, Y6, Y2, Y14   // p+6
	VPERM2F128 $0x31, Y7, Y3, Y15   // p+7
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R8*1)
	VMOVUPS Y10, (DI)(R8*2)
	VMOVUPS Y11, (DI)(R11*1)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, (DI)(R8*1)
	VMOVUPS Y14, (DI)(R8*2)
	VMOVUPS Y15, (DI)(R11*1)
	LEAQ (DI)(R8*4), DI
	ADDQ $32, SI
	ADDQ $32, BX
	DECQ CX
	JNE  t32loop
	VZEROUPPER
t32done:
	RET
