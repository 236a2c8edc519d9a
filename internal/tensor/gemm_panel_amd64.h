// Body of the AVX2 panel kernels, included by gemm_amd64.s once per dtype and
// panel half-count: BCAST, VMUL, VADD and VMOVU are bound to the dtype's
// instructions, and HI(op, a, b, c) / HI2(op, a, b) either emit "op a, b, c" /
// "op a, b" — the instruction that serves the panel's upper 32 bytes — or, in
// the half-panel kernels, nothing.
//
// Arguments: (m, k int, a *T, ars, aps int, b, c *T, cs int), strides in
// elements, scaled to bytes here by ESHIFT:
//	R11 rows left      R12 k
//	SI  a, first row   DX  a row stride    R8 a step stride
//	R13 panel          DI  c, first row    R9 c row stride
// Inside a tile: AX walks a's first row and R10 its fourth, BX walks the
// panel, CX counts k down, Y8/Y9 hold the panel row, Y0-Y7 the accumulators
// (two per tile row), Y10-Y12 are temporaries.

// ROW adds one k step of one tile row: broadcast a[i][p], multiply it into
// both halves of the panel row, then add — two instructions and two
// roundings per lane, as the scalar reference does.
#define ROW(addr, acc0, acc1) \
	BCAST addr, Y10; \
	VMUL  Y8, Y10, Y11; \
	VADD  Y11, acc0, acc0; \
	HI(VMUL, Y9, Y10, Y12); \
	HI(VADD, Y12, acc1, acc1)

#define PANELROW \
	VMOVU (BX), Y8; \
	HI2(VMOVU, 32(BX), Y9)

#define NEXTSTEP \
	ADDQ R8, AX; \
	ADDQ $64, BX; \
	DECQ CX

#define STARTTILE \
	MOVQ SI, AX; \
	MOVQ R13, BX; \
	MOVQ R12, CX

	MOVQ m+0(FP), R11
	MOVQ k+8(FP), R12
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), DX
	MOVQ aps+32(FP), R8
	MOVQ b+40(FP), R13
	MOVQ c+48(FP), DI
	MOVQ cs+56(FP), R9
	SHLQ ESHIFT, DX
	SHLQ ESHIFT, R8
	SHLQ ESHIFT, R9

tile4:
	CMPQ R11, $4
	JLT  tail
	STARTTILE
	LEAQ (SI)(DX*2), R10
	ADDQ DX, R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
loop4:
	PANELROW
	ROW((AX), Y0, Y1)
	ROW((AX)(DX*1), Y2, Y3)
	ROW((AX)(DX*2), Y4, Y5)
	ROW((R10), Y6, Y7)
	ADDQ R8, R10
	NEXTSTEP
	JNE  loop4
	VMOVU Y0, (DI)
	HI2(VMOVU, Y1, 32(DI))
	VMOVU Y2, (DI)(R9*1)
	HI2(VMOVU, Y3, 32(DI)(R9*1))
	VMOVU Y4, (DI)(R9*2)
	HI2(VMOVU, Y5, 32(DI)(R9*2))
	LEAQ (DI)(R9*2), R14
	ADDQ R9, R14
	VMOVU Y6, (R14)
	HI2(VMOVU, Y7, 32(R14))
	LEAQ (SI)(DX*4), SI
	LEAQ (DI)(R9*4), DI
	SUBQ $4, R11
	JMP  tile4

tail:
	CMPQ R11, $2
	JLT  tail1
	JEQ  tile2

	// three rows left
	STARTTILE
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
loop3:
	PANELROW
	ROW((AX), Y0, Y1)
	ROW((AX)(DX*1), Y2, Y3)
	ROW((AX)(DX*2), Y4, Y5)
	NEXTSTEP
	JNE  loop3
	VMOVU Y0, (DI)
	HI2(VMOVU, Y1, 32(DI))
	VMOVU Y2, (DI)(R9*1)
	HI2(VMOVU, Y3, 32(DI)(R9*1))
	VMOVU Y4, (DI)(R9*2)
	HI2(VMOVU, Y5, 32(DI)(R9*2))
	JMP  done

tile2:
	STARTTILE
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
loop2:
	PANELROW
	ROW((AX), Y0, Y1)
	ROW((AX)(DX*1), Y2, Y3)
	NEXTSTEP
	JNE  loop2
	VMOVU Y0, (DI)
	HI2(VMOVU, Y1, 32(DI))
	VMOVU Y2, (DI)(R9*1)
	HI2(VMOVU, Y3, 32(DI)(R9*1))
	JMP  done

tail1:
	TESTQ R11, R11
	JE   done
	STARTTILE
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
loop1:
	PANELROW
	ROW((AX), Y0, Y1)
	NEXTSTEP
	JNE  loop1
	VMOVU Y0, (DI)
	HI2(VMOVU, Y1, 32(DI))

done:
	VZEROUPPER
	RET

#undef ROW
#undef PANELROW
#undef NEXTSTEP
#undef STARTTILE
