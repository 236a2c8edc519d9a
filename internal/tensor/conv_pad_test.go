package tensor

import (
	"math"
	"testing"

	"fedca/internal/rng"
)

// The run-based im2col writers and the clipped, tap-major Col2Im this package
// shipped before both moved onto a zero-padded image, kept as references: a
// patch row built from runs with the bounds tests hoisted out (validRange,
// patchRow and its border cases), and a Col2Im that clips every tap to the
// image. The padded writers must produce their bits on every geometry, dtype
// and kernel path.

func validRangeRef(g ConvGeom, out, in, tap int) (lo, hi int) {
	d, top := g.Pad-tap, in-1+g.Pad-tap
	if g.Stride == 1 {
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

func patchRowRef[F Float](g ConvGeom, img []F, c, ky, kx int, row []F) {
	ch := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
	oyLo, oyHi := validRangeRef(g, g.OutH, g.InH, ky)
	oxLo, oxHi := validRangeRef(g, g.OutW, g.InW, kx)
	ow := g.OutW
	if oxLo == oxHi {
		oyHi = oyLo
	}
	clear(row[:oyLo*ow])
	clear(row[oyHi*ow:])
	if oyLo == oyHi {
		return
	}
	if g.Stride == 1 && g.OutW == g.InW {
		off := (ky-g.Pad)*g.InW + kx - g.Pad
		a, b := oyLo*ow, oyHi*ow
		if a+off < 0 {
			a = -off
		}
		if b+off > len(ch) {
			b = len(ch) - off
		}
		copy(row[a:b], ch[a+off:b+off])
		valid := row[oyLo*ow : oyHi*ow]
		for ox := 0; ox < ow; ox++ {
			if ox >= oxLo && ox < oxHi {
				continue
			}
			for p := ox; p < len(valid); p += ow {
				valid[p] = 0
			}
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

// patchRowsRef returns colᵀ, patch rows × position columns, row-major.
func patchRowsRef[F Float](g ConvGeom, img []F) []F {
	pos := g.ColRows()
	colT := make([]F, g.ColCols()*pos)
	q := 0
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				patchRowRef(g, img, c, ky, kx, colT[q*pos:(q+1)*pos])
				q++
			}
		}
	}
	return colT
}

func col2imClippedRef[F Float](g ConvGeom, col, dimg []F) {
	pos, ow := g.ColRows(), g.OutW
	for c := 0; c < g.InC; c++ {
		ch := dimg[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for ky := g.KH - 1; ky >= 0; ky-- {
			oyLo, oyHi := validRangeRef(g, g.OutH, g.InH, ky)
			for kx := g.KW - 1; kx >= 0; kx-- {
				oxLo, oxHi := validRangeRef(g, g.OutW, g.InW, kx)
				q := (c*g.KH+ky)*g.KW + kx
				for oy := oyLo; oy < oyHi && oxLo < oxHi; oy++ {
					src := col[q*pos+oy*ow+oxLo : q*pos+oy*ow+oxHi]
					di := (oy*g.Stride-g.Pad+ky)*g.InW + oxLo*g.Stride - g.Pad + kx
					for _, v := range src {
						ch[di] += v
						di += g.Stride
					}
				}
			}
		}
	}
}

// packedRef lays a row-major k×n matrix out in panels by the definition of
// the layout, padding lanes zero.
func packedRef[F Float](b []F, k, n int) []F {
	nr := gemmNROf[F]()
	out := make([]F, packLen[F](k, n))
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			out[j/nr*k*nr+p*nr+j%nr] = b[p*n+j]
		}
	}
	return out
}

// rawBits is the element's own bit pattern: a move must keep a NaN's payload
// and its signalling bit, which a conversion to float64 would not.
func rawBits[F Float](v F) uint64 {
	if sizeofF[F]() == 4 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

func firstRawDiff[F Float](a, b []F) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if rawBits(a[i]) != rawBits(b[i]) {
			return i
		}
	}
	return -1
}

// specials are the values a move must carry bit for bit and a sum must treat
// as the scalar loop does: both zeros, both infinities, quiet and signalling
// NaNs of either sign with a payload.
func specials[F Float]() []F {
	if sizeofF[F]() == 4 {
		var out []F
		for _, b := range []uint32{0x80000000, 0x7f800000, 0xff800000, 0x7fc00001, 0xffc00123, 0x7fa00001, 0xffa00002} {
			out = append(out, F(math.Float32frombits(b)))
		}
		return out
	}
	var out []F
	for _, b := range []uint64{0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000001, 0xfff8000000000123, 0x7ff4000000000001, 0xfff4000000000002} {
		out = append(out, F(math.Float64frombits(b)))
	}
	return out
}

// salted returns n normal draws with every sixth replaced by a special value.
func salted[F Float](r *rng.RNG, n int) []F {
	sp := specials[F]()
	s := randSlice[F](r, n)
	for i := range s {
		if r.Intn(6) == 0 {
			s[i] = sp[r.Intn(len(sp))]
		}
	}
	return s
}

// guarded returns a slice of n elements (filled with fill) in the middle of a
// buffer of guard words, and a check that the guards are intact. off shifts
// the slice's alignment.
func guarded[F Float](n, off int, fill F) (s []F, intact func() bool) {
	buf := make([]F, off+n+2*gemmNR32)
	for i := range buf {
		buf[i] = guard
	}
	s = buf[off : off+n : off+n]
	for i := range s {
		s[i] = fill
	}
	return s, func() bool {
		for i, v := range buf {
			if (i < off || i >= off+n) && v != guard {
				return false
			}
		}
		return true
	}
}

// paddedGeoms crosses stride 1/2, pad 0/1/2, K 1/3/5 and output-row widths
// below, at and across both panel widths (and widths neither divides), with
// 1–6 channels, on top of the model geometries.
func paddedGeoms() []ConvGeom {
	gs := im2colGeoms()
	i := 0
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1, 2} {
			for _, k := range []int{1, 3, 5} {
				for _, w := range []int{1, 3, 4, 8, 12, 16, 20, 33} {
					i++
					h := []int{4, 8, 7, 16}[i%4]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					gs = append(gs, NewConvGeom(1+i%6, h, w, k, k, stride, pad))
				}
			}
		}
	}
	return gs
}

// borderIsZero reports whether everything in P outside the image — the
// border of every plane and the spare plane — is +0.
func borderIsZero[F Float](g ConvGeom, pl *convPlan, p []F) bool {
	plane := pl.hp * pl.wp
	for i, v := range p {
		c, y, x := i/plane, i%plane/pl.wp-g.Pad, i%pl.wp-g.Pad
		inside := c < g.InC && y >= 0 && y < g.InH && x >= 0 && x < g.InW
		if !inside && rawBits(v) != 0 {
			return false
		}
	}
	return true
}

// guardOperand moves pb's panels and its padded image into guarded buffers
// at the given alignment and returns the two checks.
func guardOperand[F Float](pb *PackedBOf[F], g ConvGeom, off int) (panels, image func() bool) {
	pb.data, panels = guarded[F](len(pb.data), off, -7)
	pl := planOf(g)
	p, image := guarded[F]((g.InC+1)*pl.hp*pl.wp, off, 0)
	pb.img = paddedImage[F]{geom: g, plan: pl, p: p}
	return panels, image
}

func testPaddedWriters[F Float](t *testing.T) {
	r := rng.New(31)
	for gi, g := range paddedGeoms() {
		pos, patch := g.ColRows(), g.ColCols()
		forEachKernelPath(func(path string) {
			fwd, bwd := NewPackedBOf[F](patch, pos), NewPackedBOf[F](pos, patch)
			fwdPanels, fwdImage := guardOperand(fwd, g, gi%5)
			bwdPanels, bwdImage := guardOperand(bwd, g, gi%3)
			for pass := 0; pass < 3; pass++ { // stale panels and a stale interior must be overwritten
				img := salted[F](r, g.InC*g.InH*g.InW)
				colT := patchRowsRef(g, img)
				Im2ColOf(g, img, fwd)
				Im2ColPackedOf(g, img, bwd)
				if i := firstRawDiff(fwd.data, packedRef(colT, patch, pos)); i >= 0 {
					t.Fatalf("%s %+v pass %d: Im2ColOf differs from the run-based writer at packed %d", path, g, pass, i)
				}
				if i := firstRawDiff(bwd.data, packedRef(transposeOf(colT, patch, pos), pos, patch)); i >= 0 {
					t.Fatalf("%s %+v pass %d: Im2ColPackedOf differs from the run-based writer at packed %d", path, g, pass, i)
				}
			}
			if !fwdPanels() || !bwdPanels() {
				t.Fatalf("%s %+v: a writer stored outside its panels", path, g)
			}
			if !fwdImage() || !bwdImage() {
				t.Fatalf("%s %+v: a writer stored outside its padded image", path, g)
			}
			if !borderIsZero(g, fwd.img.plan, fwd.img.p) || !borderIsZero(g, bwd.img.plan, bwd.img.p) {
				t.Fatalf("%s %+v: the padding of P is no longer zero", path, g)
			}
		})
	}
}

// TestPaddedWritersMatchRunBased: both writers equal the run-based ones they
// replaced in every bit — NaN payloads, signalling NaNs, ±Inf and −0 among
// the pixels, at the image corners too — on the model geometries and on
// strides, pads, kernels and widths around both panel widths, on both kernel
// paths, without a store outside the panels or the padded image and without
// disturbing its zeros.
func TestPaddedWritersMatchRunBased(t *testing.T) {
	t.Run("f64", testPaddedWriters[float64])
	t.Run("f32", testPaddedWriters[float32])
}

func testSpecialsAtCorners[F Float](t *testing.T) {
	for _, g := range []ConvGeom{NewConvGeom(2, 8, 8, 5, 5, 1, 2), NewConvGeom(1, 4, 16, 3, 3, 1, 1), NewConvGeom(2, 5, 6, 3, 3, 2, 1)} {
		pos, patch := g.ColRows(), g.ColCols()
		corners := []int{0, g.InW - 1, (g.InH - 1) * g.InW, g.InH*g.InW - 1}
		forEachKernelPath(func(path string) {
			fwd, bwd := NewPackedBOf[F](patch, pos), NewPackedBOf[F](pos, patch)
			for _, sp := range specials[F]() {
				for _, corner := range corners {
					img := randSlice[F](rng.New(5), g.InC*g.InH*g.InW)
					img[corner], img[len(img)-1-corner] = sp, sp
					colT := patchRowsRef(g, img)
					Im2ColOf(g, img, fwd)
					Im2ColPackedOf(g, img, bwd)
					if firstRawDiff(fwd.data, packedRef(colT, patch, pos)) >= 0 || firstRawDiff(bwd.data, packedRef(transposeOf(colT, patch, pos), pos, patch)) >= 0 {
						t.Fatalf("%s %+v: %v at pixel %d is not carried like the run-based writer carries it", path, g, sp, corner)
					}
				}
			}
		})
	}
}

// TestPaddedWritersSpecialsAtCorners puts each special value at each corner
// of the first and the last channel: the pixels whose taps reach furthest
// into the padding.
func TestPaddedWritersSpecialsAtCorners(t *testing.T) {
	t.Run("f64", testSpecialsAtCorners[float64])
	t.Run("f32", testSpecialsAtCorners[float32])
}

func testPaddingStaysZero[F Float](t *testing.T) {
	r := rng.New(32)
	for _, g := range []ConvGeom{NewConvGeom(3, 16, 16, 5, 5, 1, 2), NewConvGeom(6, 8, 8, 5, 5, 1, 2), NewConvGeom(16, 4, 4, 3, 3, 1, 1), NewConvGeom(8, 16, 16, 3, 3, 2, 1), NewConvGeom(2, 7, 12, 3, 3, 1, 1)} {
		forEachKernelPath(func(path string) {
			fwd, bwd := NewPackedBOf[F](g.ColCols(), g.ColRows()), NewPackedBOf[F](g.ColRows(), g.ColCols())
			for n := 0; n < 100; n++ {
				img := salted[F](r, g.InC*g.InH*g.InW)
				Im2ColOf(g, img, fwd)
				Im2ColPackedOf(g, img, bwd)
			}
			if !borderIsZero(g, fwd.img.plan, fwd.img.p) || !borderIsZero(g, bwd.img.plan, bwd.img.p) {
				t.Fatalf("%s %+v: the padding of P is not all zero after 100 images", path, g)
			}
			// An operand handed another geometry starts from a clean image.
			g2 := NewConvGeom(g.InC, g.InH, g.InW, 1, 1, 1, 0)
			fwd2 := &PackedBOf[F]{data: make([]F, packLen[F](g2.ColCols(), g2.ColRows())), k: g2.ColCols(), n: g2.ColRows(), img: fwd.img}
			img := salted[F](r, g.InC*g.InH*g.InW)
			Im2ColOf(g2, img, fwd2)
			if i := firstRawDiff(fwd2.data, packedRef(patchRowsRef(g2, img), g2.ColCols(), g2.ColRows())); i >= 0 {
				t.Fatalf("%s %+v → %+v: a reused operand kept the old geometry's image (packed %d)", path, g, g2, i)
			}
		})
	}
}

// TestPaddingStaysZeroOver100Images: a writer that spilled into the padding
// would corrupt every later sample silently; after 100 images full of NaNs
// and infinities the border and the spare plane are still +0.
func TestPaddingStaysZeroOver100Images(t *testing.T) {
	t.Run("f64", testPaddingStaysZero[float64])
	t.Run("f32", testPaddingStaysZero[float32])
}

func testCol2ImPadded[F Float](t *testing.T, gen func(r *rng.RNG, n int) []F) {
	r := rng.New(33)
	for gi, g := range paddedGeoms() {
		pos, patch := g.ColRows(), g.ColCols()
		pl := planOf(g)
		forEachKernelPath(func(path string) {
			dcol := gen(r, pos*patch)
			want := gen(r, g.InC*g.InH*g.InW) // accumulate onto pixels that are not zero
			got := append([]F(nil), want...)
			col2imClippedRef(g, dcol, want)
			// The padded gradient image may hold anything on entry.
			pg, intact := guarded[F](g.InC*pl.hp*pl.wp, gi%5, F(math.NaN()))
			col2imPadded(g, pl, dcol, got, pg)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s %+v: pixel %d is %v, the clipped Col2Im gives %v", path, g, i, got[i], want[i])
				}
			}
			if !intact() {
				t.Fatalf("%s %+v: stored outside the padded gradient image", path, g)
			}
			// And through the pooled scratch, twice.
			for pass := 0; pass < 2; pass++ {
				again := gen(r, len(want))
				wantAgain := append([]F(nil), again...)
				col2imClippedRef(g, dcol, wantAgain)
				Col2ImOf(g, dcol, again)
				for i := range wantAgain {
					if !sameBits(again[i], wantAgain[i]) {
						t.Fatalf("%s %+v: Col2ImOf pixel %d is %v, want %v", path, g, i, again[i], wantAgain[i])
					}
				}
			}
		})
	}
}

// TestCol2ImPaddedMatchesClipped: adding every tap's whole block into a
// padded image and dropping the border gives each pixel exactly the addends
// the clipped loop gives it, in its order — so the same rounding, the same
// NaN, the same infinity and the same sign of zero — on every geometry, dtype
// and kernel path, with nothing stored outside the padded image.
func TestCol2ImPaddedMatchesClipped(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testCol2ImPadded(t, randSlice[float64]) })
	t.Run("f32", func(t *testing.T) { testCol2ImPadded(t, randSlice[float32]) })
	t.Run("f64/specials", func(t *testing.T) { testCol2ImPadded(t, salted[float64]) })
	t.Run("f32/specials", func(t *testing.T) { testCol2ImPadded(t, salted[float32]) })
}

func testCol2ImEveryTap[F Float](t *testing.T) {
	g := NewConvGeom(2, 4, 8, 3, 3, 1, 1)
	pos, patch := g.ColRows(), g.ColCols()
	negZero := F(math.Copysign(0, -1))
	for _, sp := range specials[F]() {
		for q := 0; q < patch; q++ {
			for _, p := range []int{0, g.OutW - 1, pos - g.OutW, pos - 1} { // the positions whose taps leave the image
				forEachKernelPath(func(path string) {
					// All −0 elsewhere: a pixel stays −0 only if every addend
					// it receives is −0, so a stray +0 from the border shows.
					dcol := make([]F, pos*patch)
					for i := range dcol {
						dcol[i] = negZero
					}
					dcol[q*pos+p] = sp
					want := make([]F, g.InC*g.InH*g.InW)
					for i := range want {
						want[i] = negZero
					}
					got := append([]F(nil), want...)
					col2imClippedRef(g, dcol, want)
					Col2ImOf(g, dcol, got)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s: %v at tap %d, position %d: pixel %d is %v, want %v", path, sp, q, p, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestCol2ImSpecialInEveryTap puts each special value at every tap of the
// corner positions, one at a time, in a gradient of −0.
func TestCol2ImSpecialInEveryTap(t *testing.T) {
	t.Run("f64", testCol2ImEveryTap[float64])
	t.Run("f32", testCol2ImEveryTap[float32])
}

func testMovePlanes[F Float](t *testing.T) {
	r := rng.New(34)
	for _, cols := range []int{1, 2, 3, 4, 5, 8, 12, 16, 20, 33} {
		for _, rows := range []int{1, 3} {
			for planes := 1; planes <= 3; planes++ {
				for off := 0; off < 3; off++ {
					forEachKernelPath(func(path string) {
						srcStride, dstStride := cols+off, cols+4
						srcPlane, dstPlane := rows*srcStride+off, rows*dstStride+2*dstStride
						src := salted[F](r, planes*srcPlane)
						dst, intact := guarded[F](planes*dstPlane, off, -7)
						movePlanes(dst, dstStride, dstPlane, src, srcStride, srcPlane, planes, rows, cols)
						for i, v := range dst {
							want := F(-7)
							if c, y, x := i/dstPlane, i%dstPlane/dstStride, i%dstPlane%dstStride; y < rows && x < cols {
								want = src[c*srcPlane+y*srcStride+x]
							}
							if rawBits(v) != rawBits(want) {
								t.Fatalf("%s planes=%d rows=%d cols=%d off=%d: dst[%d] = %v, want %v", path, planes, rows, cols, off, i, v, want)
							}
						}
						if !intact() {
							t.Fatalf("%s planes=%d rows=%d cols=%d off=%d: stored outside dst", path, planes, rows, cols, off)
						}
					})
				}
			}
		}
	}
}

// TestMovePlanesMatchesCopy: the mover copies exactly the runs it is given,
// at widths with and without a vector tail and at every alignment.
func TestMovePlanesMatchesCopy(t *testing.T) {
	t.Run("f64", testMovePlanes[float64])
	t.Run("f32", testMovePlanes[float32])
}
