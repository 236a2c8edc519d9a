// Body of the LSTM gate-gradient kernels, included by elementwise_amd64.s once
// per dtype: LD4(mem, reg) loads four elements as doubles, ST4(reg, xreg, mem)
// stores four doubles as elements through xreg, ESIZE is the element size and
// GSHIFT the shift that turns a row's bytes into its count of whole groups.
//
// Arguments: (dgates, dcPrev, act, tanhC, cPrev, dh, dcNext *T, hid, rows int).
// act and dgates hold rows batch rows of four gate blocks, hid elements apart,
// in the order i, f, g, o; the others hold rows of hid. For the whole groups of
// four in every row (the caller finishes hid mod 4), in float64 whatever T is,
// every product and difference rounded on its own as in lstmGateGradGo:
//
//	dc        = dh·o·(1 − tc·tc) + dcNext
//	dgates_i  = dc·g·i·(1 − i)        dgates_f = dc·cPrev·f·(1 − f)
//	dgates_g  = dc·i·(1 − g·g)        dgates_o = dh·tc·o·(1 − o)
//	dcPrev    = dc·f
//
//	DI dgates  R8 dcPrev  SI act  R9 tanhC  R10 cPrev  R11 dh  R12 dcNext
//	BX hid in bytes  DX 3·BX  AX the row's tail in bytes
//	CX groups left in the row  R13 rows left

	MOVQ dgates+0(FP), DI
	MOVQ dcPrev+8(FP), R8
	MOVQ act+16(FP), SI
	MOVQ tanhC+24(FP), R9
	MOVQ cPrev+32(FP), R10
	MOVQ dh+40(FP), R11
	MOVQ dcNext+48(FP), R12
	MOVQ hid+56(FP), BX
	MOVQ rows+64(FP), R13
	MOVQ BX, AX
	ANDQ $3, AX
	IMULQ $ESIZE, AX
	IMULQ $ESIZE, BX
	LEAQ (BX)(BX*2), DX
	VMOVUPD ONE, Y15
gradrow:
	MOVQ BX, CX
	SHRQ $GSHIFT, CX
	JE   gradrowdone
gradloop:
	LD4((R11), Y0)             // dh
	LD4((SI)(DX*1), Y1)        // o
	LD4((R9), Y2)              // tc
	VMULPD Y1, Y0, Y3          // dh·o
	VMULPD Y2, Y2, Y4
	VSUBPD Y4, Y15, Y4         // 1 − tc·tc
	VMULPD Y4, Y3, Y3
	LD4((R12), Y4)
	VADDPD Y4, Y3, Y3          // dc
	LD4((SI), Y5)              // i
	LD4((SI)(BX*1), Y6)        // f
	LD4((SI)(BX*2), Y7)        // g

	VMULPD Y7, Y3, Y8          // di = dc·g
	VMULPD Y5, Y8, Y8
	VSUBPD Y5, Y15, Y9
	VMULPD Y9, Y8, Y8
	ST4(Y8, X8, (DI))

	LD4((R10), Y9)             // cPrev
	VMULPD Y9, Y3, Y8          // df = dc·cPrev
	VMULPD Y6, Y8, Y8
	VSUBPD Y6, Y15, Y9
	VMULPD Y9, Y8, Y8
	ST4(Y8, X8, (DI)(BX*1))

	VMULPD Y5, Y3, Y8          // dg = dc·i
	VMULPD Y7, Y7, Y9
	VSUBPD Y9, Y15, Y9
	VMULPD Y9, Y8, Y8
	ST4(Y8, X8, (DI)(BX*2))

	VMULPD Y2, Y0, Y8          // do = dh·tc
	VMULPD Y1, Y8, Y8
	VSUBPD Y1, Y15, Y9
	VMULPD Y9, Y8, Y8
	ST4(Y8, X8, (DI)(DX*1))

	VMULPD Y6, Y3, Y8          // dc·f
	ST4(Y8, X8, (R8))

	ADDQ $(4*ESIZE), DI
	ADDQ $(4*ESIZE), R8
	ADDQ $(4*ESIZE), SI
	ADDQ $(4*ESIZE), R9
	ADDQ $(4*ESIZE), R10
	ADDQ $(4*ESIZE), R11
	ADDQ $(4*ESIZE), R12
	DECQ CX
	JNE  gradloop
gradrowdone:
	// Past the row's tail, and for the gate blocks past the other three.
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, SI
	ADDQ AX, DI
	ADDQ DX, SI
	ADDQ DX, DI
	DECQ R13
	JNE  gradrow
	VZEROUPPER
	RET
