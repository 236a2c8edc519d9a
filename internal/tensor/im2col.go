package tensor

import (
	"fmt"
	"sync"
	"unsafe"
)

// ConvGeom describes the geometry of a 2-D convolution with square stride and
// symmetric zero padding, shared by the im2col writers, Col2ImOf and the
// Conv2D layer.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride, Pad   int
	OutH, OutW    int // derived output spatial size
}

// NewConvGeom computes output dimensions and validates the geometry.
func NewConvGeom(inC, inH, inW, kh, kw, stride, pad int) ConvGeom {
	if stride <= 0 {
		panic("tensor: conv stride must be positive")
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry yields non-positive output %dx%d", outH, outW))
	}
	return ConvGeom{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: outH, OutW: outW}
}

// ColRows returns the number of output positions, OutH·OutW.
func (g ConvGeom) ColRows() int { return g.OutH * g.OutW }

// ColCols returns the patch size, InC·KH·KW.
func (g ConvGeom) ColCols() int { return g.InC * g.KH * g.KW }

// The patch matrix of one image has a row per patch element q = (c, ky, kx)
// and a column per output position p = (oy, ox):
//
//	colᵀ[q][p] = img[c][oy·stride − pad + ky][ox·stride − pad + kx]   (0 in the padding)
//
// All three routines below work on P, the image inside its zero border:
// P[c][y+pad][x+pad] = img[c][y][x], Hp = InH+2·pad rows of Wp = InW+2·pad
// pixels per channel. In P a patch element is a sum of two offsets and no
// test,
//
//	colᵀ[q][p] = P[tap[q] + pos[p]]     tap[q] = c·Hp·Wp + ky·Wp + kx
//	                                    pos[p] = oy·stride·Wp + ox·stride
//
// so nothing below knows where the border is: the writers read zeros there,
// Col2ImOf adds into it what a bounds test would skip, and both tables come
// from the geometry alone (convPlan). At stride 1 a tap's view of one output
// row is OutW consecutive pixels of P, which is what the vector bodies move:
//
//	Im2ColOf        B of the forward product   out[outC×pos] = W[outC×patch] · colᵀ[patch×pos]
//	Im2ColPackedOf  B of the dW product        dW[outC×patch] = dout[outC×pos] · col[pos×patch]
//
// each directly in the packed-panel layout its kernel consumes; no row-major
// patch matrix is ever materialized. Every other geometry (a stride above 1,
// an output row the vector width does not divide) and every other machine
// reads the same P through the same two tables one element at a time; that
// loop is also the portable path.

// convPlan is what the writers and Col2ImOf derive from a geometry: the shape
// of P and the two offset tables. It is immutable and shared by every operand
// and worker of that geometry.
type convPlan struct {
	hp, wp int
	// tap[q] is the offset in P of the pixel patch element q sees at output
	// position 0. The table is padded to whole float32 panels with the offset
	// of P's spare all-zero plane, so the dW writer fills a ragged last panel
	// without knowing it is one: the lanes past the patch read zeros.
	tap []int32
	// pos[p] is the offset from that pixel to the one the tap sees at output
	// position p.
	pos []int32
}

var convPlans struct {
	sync.RWMutex
	m map[ConvGeom]*convPlan
}

// planOf returns g's plan, built on first use: once per geometry and process,
// so a steady-state iteration allocates nothing here.
func planOf(g ConvGeom) *convPlan {
	convPlans.RLock()
	pl := convPlans.m[g]
	convPlans.RUnlock()
	if pl != nil {
		return pl
	}
	hp, wp := g.InH+2*g.Pad, g.InW+2*g.Pad
	patch := g.ColCols()
	pl = &convPlan{hp: hp, wp: wp, tap: make([]int32, (patch+gemmNR32-1)/gemmNR32*gemmNR32), pos: make([]int32, g.ColRows())}
	for q := range pl.tap {
		pl.tap[q] = int32(g.InC * hp * wp) // the zero plane
		if q < patch {
			pl.tap[q] = int32(q/(g.KH*g.KW)*hp*wp + q/g.KW%g.KH*wp + q%g.KW)
		}
	}
	for p := range pl.pos {
		pl.pos[p] = int32(p/g.OutW*g.Stride*wp + p%g.OutW*g.Stride)
	}
	convPlans.Lock()
	if convPlans.m == nil {
		convPlans.m = make(map[ConvGeom]*convPlan)
	}
	convPlans.m[g] = pl
	convPlans.Unlock()
	return pl
}

// paddedImage is the P of one packed operand. The operand owns it: drawn
// zeroed from an arena with the operand (AllocPackedOf), or else allocated,
// zeroed, on the first image of a geometry. After that only the interior is
// ever written — once per image — so the border and the spare plane stay
// zero for the operand's life.
type paddedImage[F Float] struct {
	geom ConvGeom
	plan *convPlan
	p    []F
}

// load copies img into the interior of P and returns P with its plan.
func (pi *paddedImage[F]) load(g ConvGeom, img []F) ([]F, *convPlan) {
	if pi.plan == nil || pi.geom != g {
		pi.geom, pi.plan = g, planOf(g)
		pi.p = make([]F, (g.InC+1)*pi.plan.hp*pi.plan.wp)
	}
	copyInterior(g, pi.plan, pi.p, img, false)
	return pi.p, pi.plan
}

// copyInterior copies a flat image (InC·InH·InW) into the interior of a
// padded one laid out by pl, or with out set the interior back into the image.
func copyInterior[F Float](g ConvGeom, pl *convPlan, padded, img []F, out bool) {
	in := padded[g.Pad*pl.wp+g.Pad:]
	if out {
		movePlanes(img, g.InW, g.InH*g.InW, in, pl.wp, pl.hp*pl.wp, g.InC, g.InH, g.InW)
	} else {
		movePlanes(in, pl.wp, pl.hp*pl.wp, img, g.InW, g.InH*g.InW, g.InC, g.InH, g.InW)
	}
}

// movePlanes copies planes × rows runs of cols elements: run i of plane c
// from src[c·srcPlane + i·srcStride:] to dst[c·dstPlane + i·dstStride:]. An
// image row is 4 to 16 elements, for which a memmove call costs several
// times the move.
func movePlanes[F Float](dst []F, dstStride, dstPlane int, src []F, srcStride, srcPlane, planes, rows, cols int) {
	if planes <= 0 || rows <= 0 || cols <= 0 {
		return
	}
	// The assembly checks no bounds.
	_ = dst[(planes-1)*dstPlane+(rows-1)*dstStride+cols-1]
	_ = src[(planes-1)*srcPlane+(rows-1)*srcStride+cols-1]
	if sz := sizeofF[F](); useAVX2 && cols*sz%16 == 0 {
		movePlanesAVX2(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), planes, rows, cols*sz, dstStride*sz, srcStride*sz, dstPlane*sz, srcPlane*sz)
		return
	}
	for c := 0; c < planes; c++ {
		for i := 0; i < rows; i++ {
			copy(dst[c*dstPlane+i*dstStride:][:cols], src[c*srcPlane+i*srcStride:][:cols])
		}
	}
}

// Im2ColOf expands one image (flat, C·H·W) into operand B of the forward
// product: colᵀ, patch rows × position columns, in packed panels. pb must
// have k = ColCols() and n = ColRows(). The vector lanes of the kernel then
// run along output positions, whose count (64–256) fills them; along the
// 6–16 output channels they would not.
func Im2ColOf[F Float](g ConvGeom, img []F, pb *PackedBOf[F]) {
	pos, patch := g.ColRows(), g.ColCols()
	if len(img) != g.InC*g.InH*g.InW {
		panic("tensor: Im2Col image size mismatch")
	}
	if pb.k != patch || pb.n != pos {
		panic(fmt.Sprintf("tensor: Im2Col packed shape [%d %d], want [%d %d]", pb.k, pb.n, patch, pos))
	}
	p, pl := pb.img.load(g, img)
	nr, sz := gemmNROf[F](), sizeofF[F]()
	// A panel row is 64 bytes of consecutive positions. When an output row is
	// a whole number of them, or a half or a quarter of one, every panel row
	// is one, two or four runs of P at the same places for every tap:
	// fixed-width moves and no other case.
	if seg := segmentBytes(g.OutW * sz); useAVX2 && g.Stride == 1 && seg != 0 && pos%nr == 0 && patch > 0 {
		im2colSegsAVX2(unsafe.Pointer(&pb.data[0]), unsafe.Pointer(&p[0]), &pl.tap[0], patch, &pl.pos[0], pos/nr, nr, seg, pl.wp*sz, sz/4+1)
		return
	}
	for j0 := 0; j0 < pos; j0 += nr {
		at := pl.pos[j0:min(j0+nr, pos)]
		panel := pb.data[j0*patch : j0*patch+patch*nr]
		for q := 0; q < patch; q++ {
			row, src := panel[q*nr:q*nr+nr], p[pl.tap[q]:]
			for jj, o := range at {
				row[jj] = src[o]
			}
			for jj := len(at); jj < nr; jj++ {
				row[jj] = 0
			}
		}
	}
}

// segmentBytes returns the width of the runs a forward panel row is made of
// when an output row is rowBytes long — 64, 32 or 16 bytes — or 0 when the
// runs have no one width.
func segmentBytes(rowBytes int) int {
	switch {
	case rowBytes%64 == 0:
		return 64
	case rowBytes == 32, rowBytes == 16:
		return rowBytes
	}
	return 0
}

// Im2ColPackedOf expands one image into operand B of the dW product: col,
// position rows × patch columns, in packed panels. pb must have k =
// ColRows() and n = ColCols(); the values are those of a row-major patch
// matrix passed through PackedBOf.Pack.
func Im2ColPackedOf[F Float](g ConvGeom, img []F, pb *PackedBOf[F]) {
	pos, patch := g.ColRows(), g.ColCols()
	if len(img) != g.InC*g.InH*g.InW {
		panic("tensor: Im2ColPacked image size mismatch")
	}
	if pb.k != pos || pb.n != patch {
		panic(fmt.Sprintf("tensor: Im2ColPacked packed shape [%d %d], want [%d %d]", pb.k, pb.n, pos, patch))
	}
	p, pl := pb.img.load(g, img)
	// A panel holds NR taps side by side, a row per position: the transpose
	// of NR views of P. At stride 1 a view of an output row is contiguous, so
	// eight of them are interleaved in registers, a vector's worth of
	// positions at a time, the row loop inside the kernel.
	nr, sz := gemmNROf[F](), sizeofF[F]()
	vec := useAVX2 && g.Stride == 1 && g.OutW*sz%32 == 0
	for q0 := 0; q0 < patch; q0 += nr {
		panel, taps := pb.data[q0*pos:q0*pos+pos*nr], pl.tap[q0:q0+nr]
		if vec {
			for jj := 0; jj < nr; jj += 8 {
				im2colT8AVX2(&panel[jj], &p[0], &taps[jj], g.OutH, g.OutW, pl.wp, nr)
			}
			continue
		}
		for i, o := range pl.pos {
			row, src := panel[i*nr:i*nr+nr], p[o:]
			for jj, t := range taps {
				row[jj] = src[t]
			}
		}
	}
}

// Col2ImOf scatter-adds a patch-gradient matrix back into the image gradient
// (the adjoint of im2col). col is dcolᵀ, row-major patch rows × position
// columns — what MatMulTransA(dcolᵀ, W, dout) yields with the lanes along the
// positions. dimg must be zeroed by the caller if accumulation from a clean
// slate is desired.
//
// Each pixel receives one addend per (ky, kx) tap that reaches it. They are
// added in descending (ky, kx) order, which is ascending (oy, ox) order of
// the contributing output position: the order a position-major walk of a
// row-major patch matrix produces, and the one the goldens were recorded
// with.
func Col2ImOf[F Float](g ConvGeom, col, dimg []F) {
	if len(dimg) != g.InC*g.InH*g.InW {
		panic("tensor: Col2Im image size mismatch")
	}
	if len(col) != g.ColRows()*g.ColCols() {
		panic("tensor: Col2Im col size mismatch")
	}
	pl := planOf(g)
	buf := getPack[F](g.InC * pl.hp * pl.wp)
	col2imPadded(g, pl, col, dimg, buf.s)
	putPack(buf)
}

// col2imPadded is Col2ImOf on pg, a padded gradient image of any contents
// (InC planes of Hp×Wp). The pixels start out as dimg's and the border as
// zero; every tap then adds its whole block of col, OutH × OutW addends, at
// its offset — no tap is clipped, so the border collects the addends that
// fall outside the image, each real pixel exactly those that fall on it in
// their order — and the interior goes back to dimg.
func col2imPadded[F Float](g ConvGeom, pl *convPlan, col, dimg, pg []F) {
	pos, patch := g.ColRows(), g.ColCols()
	clear(pg)
	copyInterior(g, pl, pg, dimg, false)
	if sz := sizeofF[F](); useAVX2 && g.Stride == 1 && g.OutW*sz%32 == 0 && patch > 0 {
		col2imAddAVX2(&pg[0], &col[0], &pl.tap[0], patch, g.OutH, g.OutW, pl.wp)
	} else {
		for q := patch - 1; q >= 0; q-- {
			dst := pg[pl.tap[q]:]
			for i, v := range col[q*pos : (q+1)*pos] {
				dst[pl.pos[i]] += v
			}
		}
	}
	copyInterior(g, pl, pg, dimg, true)
}
