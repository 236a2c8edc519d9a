// Body of the LSTM cell kernels, included by elementwise_amd64.s once per
// dtype: PREACT(ma, mh, mb, reg) sums four elements of act, hh and bias as
// (act + hh) + bias in the element type and leaves them in reg as doubles,
// LD4 and ST4 are the gate gradients' load and store, ESIZE is the element
// size, GSHIFT the shift between a count of groups and its bytes, and GSCALE
// a group's bytes over 16.
//
// Arguments: (act, hh, bias, cPrev, c, tanhC, h *T, hid, rows, g0 int) int.
// act and hh hold rows batch rows of four gate blocks, hid elements apart, in
// the order i, f, g, o, and bias one such row; cPrev, c, tanhC and h hold
// rows of hid. From group g0 of the first row on, for the whole groups of
// four in every row (the caller finishes hid mod 4), in float64 whatever T
// is, every operation rounded on its own as in lstmCellGo:
//
//	i, f, o = sigmoid(preact)      g = tanh(preact)
//	c       = f·cPrev + i·g        tanhC = tanh(c)      h = o·tanhC
//
// with the activated gates stored over act. A row goes in chunks of up to
// four groups, in two passes over each: the gates, kept unrounded in the
// frame, then the cell state. Within a pass the groups are independent, so
// the CPU overlaps their long exp chains; one pass per group would run them
// one after another.
//
// It stops in front of the first group with an i, f or o lane outside
// |x| ≤ EXPMAX, or a NaN in g or cPrev, and returns the number of groups
// done. With the sigmoid lanes in range, i and f are positive and finite, so
// c is a NaN exactly where g or cPrev is one: the inputs tell whether a
// group is served before any of it is stored.
//
//	DI act  SI hh  R8 bias (the chunk's gates, advancing in the first pass)
//	R9 cPrev  R10 c  R11 tanhC  R12 h (the chunk's start)
//	BX hid in bytes  DX 3·BX  R13 the group in the chunk, ×16
//	AX the first pass's end, ×16  CX scratch
//	Y12–Y15 the gates i, f, g, o  Y8 c  Y6 tanh c  Y7 h  Y11 zero
//
// The frame holds the chunk's gates (group j's gate k at 128·j + 32·k) and
// three counters.
#define DONE    512(SP) // groups done
#define ROWLEFT 520(SP) // groups of the row after this chunk
#define STOPPED 528(SP) // the first pass stopped in front of a group

	MOVQ act+0(FP), DI
	MOVQ hh+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ cPrev+24(FP), R9
	MOVQ c+32(FP), R10
	MOVQ tanhC+40(FP), R11
	MOVQ h+48(FP), R12
	MOVQ hid+56(FP), BX
	MOVQ g0+72(FP), CX
	IMULQ $ESIZE, BX
	LEAQ (BX)(BX*2), DX
	MOVQ CX, AX
	SHLQ $GSHIFT, AX           // g0 groups in
	ADDQ AX, DI
	ADDQ AX, SI
	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	NEGQ CX
	MOVQ BX, AX
	SHRQ $GSHIFT, AX
	ADDQ AX, CX                // the first row's groups from g0 on
	MOVQ CX, ROWLEFT
	MOVQ $0, DONE
	VXORPD Y11, Y11, Y11
chunk:
	MOVQ ROWLEFT, AX
	CMPQ AX, $4
	JLE  sized
	MOVQ $4, AX
sized:
	SUBQ AX, ROWLEFT
	SHLQ $4, AX
	XORQ R13, R13
	MOVQ $0, STOPPED
gates:
	PREACT((DI), (SI), (R8), Y12)
	PREACT((DI)(BX*1), (SI)(BX*1), (R8)(BX*1), Y13)
	PREACT((DI)(BX*2), (SI)(BX*2), (R8)(BX*2), Y14)
	PREACT((DI)(DX*1), (SI)(DX*1), (R8)(DX*1), Y15)
	VANDPD  ABSMASK, Y12, Y0
	VCMPPD  $18, EXPMAX, Y0, Y0    // |x| <= EXPMAX, false for NaN
	VANDPD  ABSMASK, Y13, Y1
	VCMPPD  $18, EXPMAX, Y1, Y1
	VANDPD  Y1, Y0, Y0
	VANDPD  ABSMASK, Y15, Y1
	VCMPPD  $18, EXPMAX, Y1, Y1
	VANDPD  Y1, Y0, Y0
	VCMPPD  $7, Y14, Y14, Y1       // ordered with itself: not NaN
	VANDPD  Y1, Y0, Y0
	LD4((R9)(R13*GSCALE), Y1)      // cPrev
	VCMPPD  $7, Y1, Y1, Y1
	VANDPD  Y1, Y0, Y0
	VMOVMSKPD Y0, CX
	CMPL CX, $15
	JNE  stop

	SIGMOID4(Y12)
	VMOVUPD Y0, 0(SP)(R13*8)
	ST4(Y0, X0, (DI))
	SIGMOID4(Y13)
	VMOVUPD Y0, 32(SP)(R13*8)
	ST4(Y0, X0, (DI)(BX*1))
	SIGMOID4(Y15)
	VMOVUPD Y0, 96(SP)(R13*8)
	ST4(Y0, X0, (DI)(DX*1))
	VMOVAPD Y14, Y8
	TANH4(CX, gabove, gsat, gbelow, gzero)
	VMOVUPD Y6, 64(SP)(R13*8)
	ST4(Y6, X6, (DI)(BX*2))
	ADDQ $(4*ESIZE), DI
	ADDQ $(4*ESIZE), SI
	ADDQ $(4*ESIZE), R8
	ADDQ $16, R13
	CMPQ R13, AX
	JNE  gates
	JMP  state
stop:
	MOVQ $1, STOPPED
state:
	MOVQ R13, AX
	TESTQ R13, R13
	JE   chunkdone
cell:
	SUBQ $16, R13
	VMOVUPD 0(SP)(R13*8), Y12      // i
	VMOVUPD 32(SP)(R13*8), Y13     // f
	VMOVUPD 64(SP)(R13*8), Y14     // g
	LD4((R9)(R13*GSCALE), Y8)      // cPrev
	VMULPD  Y13, Y8, Y8            // f·cPrev
	VMULPD  Y14, Y12, Y0           // i·g
	VADDPD  Y0, Y8, Y8             // c
	TANH4(CX, cabove, csat, cbelow, czero)
	VMULPD  96(SP)(R13*8), Y6, Y7  // h = o·tanh c
	ST4(Y8, X8, (R10)(R13*GSCALE))
	ST4(Y6, X6, (R11)(R13*GSCALE))
	ST4(Y7, X7, (R12)(R13*GSCALE))
	TESTQ R13, R13
	JNE  cell
chunkdone:
	LEAQ (R9)(AX*GSCALE), R9
	LEAQ (R10)(AX*GSCALE), R10
	LEAQ (R11)(AX*GSCALE), R11
	LEAQ (R12)(AX*GSCALE), R12
	SHRQ $4, AX
	ADDQ AX, DONE
	CMPQ STOPPED, $0
	JNE  celldone
	CMPQ ROWLEFT, $0
	JNE  chunk
	// Past the row's tail, for the gate blocks past the other three; the
	// bias row starts over.
	MOVQ BX, CX
	ANDQ $(3*ESIZE), CX
	ADDQ CX, DI
	ADDQ CX, SI
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	ADDQ CX, R12
	ADDQ DX, DI
	ADDQ DX, SI
	MOVQ BX, CX
	SHRQ $GSHIFT, CX
	SHLQ $GSHIFT, CX
	SUBQ CX, R8
	DECQ rows+64(FP)
	JE   celldone
	MOVQ BX, CX
	SHRQ $GSHIFT, CX
	MOVQ CX, ROWLEFT
	JMP  chunk
celldone:
	VZEROUPPER
	MOVQ DONE, AX
	MOVQ AX, ret+80(FP)
	RET

#undef DONE
#undef ROWLEFT
#undef STOPPED
