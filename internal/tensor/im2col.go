package tensor

import "fmt"

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
// In that orientation a row is the channel image seen through one kernel
// tap: for a fixed q and output row oy, consecutive ox read consecutive (or
// evenly strided) pixels, so rows are built from runs with the bounds tests
// hoisted out of the inner loop — and for a stride-1, size-preserving
// convolution a whole row is one shifted copy of the channel plus a few
// zeroed border elements. Both writers below build a row at a time that way
// and differ only in where they put it:
//
//	Im2ColOf        B of the forward product   out[outC×pos] = W[outC×patch] · colᵀ[patch×pos]
//	Im2ColPackedOf  B of the dW product        dW[outC×patch] = dout[outC×pos] · col[pos×patch]
//
// each directly in the packed-panel layout its kernel consumes; no row-major
// patch matrix is ever materialized.

// validRange returns the half-open range of output coordinates o in [0, out)
// whose input coordinate o·Stride − Pad + tap lies inside [0, in).
func (g ConvGeom) validRange(out, in, tap int) (lo, hi int) {
	d, top := g.Pad-tap, in-1+g.Pad-tap
	if g.Stride == 1 { // the common case, spared two divisions per patch row
		lo, hi = max(d, 0), top+1
	} else {
		if d > 0 {
			lo = (d + g.Stride - 1) / g.Stride
		}
		if top >= 0 {
			hi = top/g.Stride + 1
		}
	}
	hi = max(min(hi, out), 0)
	return min(lo, hi), hi
}

// rowScratch returns pb's im2col row buffer, sized for n positions. It is
// allocated on first use and lives as long as pb, so a pooled operand costs
// nothing per image.
func (pb *PackedBOf[F]) rowScratch(n int) []F {
	if cap(pb.row) < n {
		pb.row = make([]F, n)
	}
	return pb.row[:n]
}

// patchRow writes row q = (c, ky, kx) of colᵀ — one value per output
// position — into row.
func patchRow[F Float](g ConvGeom, img []F, c, ky, kx int, row []F) {
	ch := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
	oyLo, oyHi := g.validRange(g.OutH, g.InH, ky)
	oxLo, oxHi := g.validRange(g.OutW, g.InW, kx)
	ow := g.OutW
	if oxLo == oxHi {
		oyHi = oyLo // the tap sees only padding
	}
	clear(row[:oyLo*ow])
	clear(row[oyHi*ow:])
	if oyLo == oyHi {
		return
	}
	if g.Stride == 1 && g.OutW == g.InW {
		// Output row oy starts at pixel (oy−pad+ky)·InW + (kx−pad): with equal
		// widths that is position + a constant, so the valid rows are one
		// contiguous copy. It drags along the pixels that wrap around a row
		// end into the padding columns, which are zeroed next.
		off := (ky-g.Pad)*g.InW + kx - g.Pad
		a, b := oyLo*ow, oyHi*ow
		if a+off < 0 {
			a = -off
		}
		if b+off > len(ch) {
			b = len(ch) - off
		}
		copy(row[a:b], ch[a+off:b+off])
		// Column-major over the few padding columns: one long strided loop
		// each, instead of two short unpredictable ones per output row.
		valid := row[oyLo*ow : oyHi*ow]
		zeroColumn := func(ox int) {
			for p := ox; p < len(valid); p += ow {
				valid[p] = 0
			}
		}
		for ox := 0; ox < oxLo; ox++ {
			zeroColumn(ox)
		}
		for ox := oxHi; ox < ow; ox++ {
			zeroColumn(ox)
		}
		return
	}
	for oy := oyLo; oy < oyHi; oy++ {
		src := ch[(oy*g.Stride-g.Pad+ky)*g.InW:]
		dst := row[oy*ow : (oy+1)*ow]
		clear(dst[:oxLo])
		clear(dst[oxHi:])
		si := oxLo*g.Stride - g.Pad + kx
		for ox := oxLo; ox < oxHi; ox++ {
			dst[ox] = src[si]
			si += g.Stride
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
	nr := gemmNROf[F]()
	row := pb.rowScratch(pos)
	full := pos / nr * nr
	q := 0
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				patchRow(g, img, c, ky, kx, row)
				// Row q of every panel, 64 bytes at a time.
				copyPanelRows(pb.data[q*nr:], patch*nr, row, nr, full/nr, nr)
				if full < pos {
					copyPanelRows(pb.data[full*patch+q*nr:], nr, row[full:], nr, 1, pos-full)
				}
				q++
			}
		}
	}
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
	// A panel's worth of patch rows is built side by side, then interleaved
	// into the panel — packPanelsT of an NR × pos block — so the panel is
	// written front to back; its padding lanes past patch's edge come out 0.
	nr := gemmNROf[F]()
	rows := pb.rowScratch(nr * pos)
	c, ky, kx := 0, 0, 0
	for q0 := 0; q0 < patch; q0 += nr {
		w := min(nr, patch-q0)
		for r := 0; r < w; r++ {
			patchRow(g, img, c, ky, kx, rows[r*pos:(r+1)*pos])
			if kx++; kx == g.KW {
				kx = 0
				if ky++; ky == g.KH {
					ky, c = 0, c+1
				}
			}
		}
		packPanelsT(pb.data[q0*pos:q0*pos+pos*nr], rows[:w*pos], pos, w)
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
	pos, patch := g.ColRows(), g.ColCols()
	if len(dimg) != g.InC*g.InH*g.InW {
		panic("tensor: Col2Im image size mismatch")
	}
	if len(col) != pos*patch {
		panic("tensor: Col2Im col size mismatch")
	}
	ow := g.OutW
	for c := 0; c < g.InC; c++ {
		ch := dimg[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ky := g.KH - 1; ky >= 0; ky-- {
			oyLo, oyHi := g.validRange(g.OutH, g.InH, ky)
			for kx := g.KW - 1; kx >= 0; kx-- {
				oxLo, oxHi := g.validRange(g.OutW, g.InW, kx)
				q := (c*g.KH+ky)*g.KW + kx
				for oy := oyLo; oy < oyHi && oxLo < oxHi; oy++ {
					src := col[q*pos+oy*ow+oxLo : q*pos+oy*ow+oxHi]
					di := (oy*g.Stride-g.Pad+ky)*g.InW + oxLo*g.Stride - g.Pad + kx
					if g.Stride == 1 {
						dst := ch[di : di+len(src)]
						for i, v := range src {
							dst[i] += v
						}
						continue
					}
					for _, v := range src {
						ch[di] += v
						di += g.Stride
					}
				}
			}
		}
	}
}
