package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedca/internal/rng"
)

// The textbook im2col and col2im, the references of the writers and of
// Col2ImOf: a row-major [pos × patch] patch matrix, walked position-major
// with a bounds test per element.

func im2colRef[F Float](g ConvGeom, img, col []F) {
	idx := 0
	for oy := 0; oy < g.OutH; oy++ {
		for ox := 0; ox < g.OutW; ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride - g.Pad + ky
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride - g.Pad + kx
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							col[idx] = 0
						} else {
							col[idx] = img[(c*g.InH+iy)*g.InW+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

func col2imRef[F Float](g ConvGeom, col, dimg []F) {
	idx := 0
	for oy := 0; oy < g.OutH; oy++ {
		for ox := 0; ox < g.OutW; ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride - g.Pad + ky
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride - g.Pad + kx
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							dimg[(c*g.InH+iy)*g.InW+ix] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// unpackB returns the k×n row-major matrix a packed operand holds and fails
// the test if a padding lane is not zero.
func unpackB[F Float](t *testing.T, pb *PackedBOf[F]) []F {
	t.Helper()
	nr := gemmNROf[F]()
	out := make([]F, pb.k*pb.n)
	for i, v := range pb.data {
		panel, p, jj := i/(pb.k*nr), i/nr%pb.k, i%nr
		if j := panel*nr + jj; j < pb.n {
			out[p*pb.n+j] = v
		} else if v != 0 {
			t.Fatalf("padding lane %d of panel %d, row %d holds %v", jj, panel, p, v)
		}
	}
	return out
}

// im2colGeoms are the geometries every model issues (CNN 5×5 same-padding;
// WRN 3×3 at stride 1 and 2, and its 1×1 stride-2 shortcuts) plus ragged
// ones: non-square, valid (pad 0), pad wider than the kernel reach, kernels
// that overhang the image, strides that leave a remainder.
func im2colGeoms() []ConvGeom {
	return []ConvGeom{
		NewConvGeom(3, 16, 16, 5, 5, 1, 2),
		NewConvGeom(6, 8, 8, 5, 5, 1, 2),
		NewConvGeom(3, 16, 16, 3, 3, 1, 1),
		NewConvGeom(8, 16, 16, 3, 3, 2, 1),
		NewConvGeom(16, 8, 8, 3, 3, 2, 1),
		NewConvGeom(32, 4, 4, 3, 3, 1, 1),
		NewConvGeom(8, 16, 16, 1, 1, 2, 0),
		NewConvGeom(16, 8, 8, 1, 1, 2, 0),
		NewConvGeom(1, 4, 4, 1, 1, 1, 0),
		NewConvGeom(2, 6, 5, 3, 3, 2, 1),
		NewConvGeom(2, 7, 9, 3, 3, 1, 0),
		NewConvGeom(1, 5, 5, 3, 3, 1, 2),
		NewConvGeom(2, 9, 7, 5, 3, 2, 2),
		NewConvGeom(1, 2, 2, 3, 3, 1, 1),
		NewConvGeom(1, 1, 1, 5, 5, 1, 2),
		NewConvGeom(3, 11, 13, 4, 2, 3, 1),
		NewConvGeom(2, 17, 17, 3, 3, 1, 1),
	}
}

func randomGeoms(r *rng.RNG, n int) []ConvGeom {
	var gs []ConvGeom
	for len(gs) < n {
		kh, kw := 1+r.Intn(5), 1+r.Intn(5)
		stride, pad := 1+r.Intn(3), r.Intn(3)
		inH, inW := 1+r.Intn(12), 1+r.Intn(12)
		if inH+2*pad < kh || inW+2*pad < kw {
			continue
		}
		gs = append(gs, NewConvGeom(1+r.Intn(3), inH, inW, kh, kw, stride, pad))
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

func testPaddingStaysZero[F Float](t *testing.T) {
	r := rng.New(32)
	sp := specials[F]()
	for _, g := range []ConvGeom{NewConvGeom(3, 16, 16, 5, 5, 1, 2), NewConvGeom(6, 8, 8, 5, 5, 1, 2), NewConvGeom(16, 4, 4, 3, 3, 1, 1), NewConvGeom(8, 16, 16, 3, 3, 2, 1), NewConvGeom(2, 7, 12, 3, 3, 1, 1)} {
		img := func() []F {
			s := randSlice[F](r, g.InC*g.InH*g.InW)
			for i := range s {
				if r.Intn(6) == 0 {
					s[i] = sp[r.Intn(len(sp))]
				}
			}
			return s
		}
		forEachKernelPath(func(path string) {
			fwd, bwd := NewPackedBOf[F](g.ColCols(), g.ColRows()), NewPackedBOf[F](g.ColRows(), g.ColCols())
			for n := 0; n < 100; n++ {
				x := img()
				Im2ColOf(g, x, fwd)
				Im2ColPackedOf(g, x, bwd)
			}
			if !borderIsZero(g, fwd.img.plan, fwd.img.p) || !borderIsZero(g, bwd.img.plan, bwd.img.p) {
				t.Fatalf("%s %+v: the padding of P is not all zero after 100 images", path, g)
			}
			// An operand handed another geometry starts from a clean image.
			g2 := NewConvGeom(g.InC, g.InH, g.InW, 1, 1, 1, 0)
			fwd2 := &PackedBOf[F]{data: make([]F, packLen[F](g2.ColCols(), g2.ColRows())), k: g2.ColCols(), n: g2.ColRows(), img: fwd.img}
			x, col := img(), make([]F, g2.ColRows()*g2.ColCols())
			Im2ColOf(g2, x, fwd2)
			im2colRef(g2, x, col)
			want := packedRef(transposeOf(col, g2.ColRows(), g2.ColCols()), g2.ColCols(), g2.ColRows())
			if i := firstDiff(fwd2.data, want, false); i >= 0 {
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

func testCol2ImEveryTap[F Float](t *testing.T) {
	g := NewConvGeom(2, 4, 8, 3, 3, 1, 1)
	pos, patch := g.ColRows(), g.ColCols()
	negZero := F(math.Copysign(0, -1))
	for _, sp := range specials[F]() {
		for q := 0; q < patch; q++ {
			for _, p := range []int{0, g.OutW - 1, pos - g.OutW, pos - 1} { // the positions whose taps leave the image
				// All −0 elsewhere: a pixel stays −0 only if every addend it
				// receives is −0, so a stray +0 from the border shows.
				dcol := make([]F, pos*patch)
				want := make([]F, g.InC*g.InH*g.InW)
				for _, s := range [][]F{dcol, want} {
					for i := range s {
						s[i] = negZero
					}
				}
				dcol[q*pos+p] = sp
				got := append([]F(nil), want...)
				col2imRef(g, transposeOf(dcol, patch, pos), want)
				forEachKernelPath(func(path string) {
					dimg := append([]F(nil), got...)
					Col2ImOf(g, dcol, dimg)
					if i := firstDiff(dimg, want, true); i >= 0 {
						t.Fatalf("%s: %v at tap %d, position %d: pixel %d is %v, want %v", path, sp, q, p, i, dimg[i], want[i])
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

func benchIm2Col[F Float](b *testing.B, dtype string) {
	for _, g := range []ConvGeom{NewConvGeom(3, 16, 16, 5, 5, 1, 2), NewConvGeom(6, 8, 8, 5, 5, 1, 2), NewConvGeom(8, 16, 16, 3, 3, 2, 1)} {
		img := randSlice[F](rng.New(1), g.InC*g.InH*g.InW)
		fwd := NewPackedBOf[F](g.ColCols(), g.ColRows())
		bwd := NewPackedBOf[F](g.ColRows(), g.ColCols())
		col := make([]F, g.ColRows()*g.ColCols())
		dimg := make([]F, len(img))
		name := fmt.Sprintf("%dx%dx%d_k%d_s%d/%s", g.InC, g.InH, g.InW, g.KH, g.Stride, dtype)
		b.Run("forward/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Im2ColOf(g, img, fwd)
			}
		})
		b.Run("packed/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Im2ColPackedOf(g, img, bwd)
			}
		})
		b.Run("col2im/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Col2ImOf(g, col, dimg)
			}
		})
	}
}

func BenchmarkIm2Col(b *testing.B) {
	benchIm2Col[float64](b, "f64")
	benchIm2Col[float32](b, "f32")
}
