package tensor

import (
	"fmt"
	"slices"
	"testing"

	"fedca/internal/rng"
)

// The element-by-element im2col/col2im this package shipped before the
// writers moved to runs and packed output, kept as the differential
// references: a row-major [pos × patch] patch matrix, walked position-major
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

func transposeOf[F Float](a []F, rows, cols int) []F {
	out := make([]F, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
	return out
}

func randSlice[F Float](r *rng.RNG, n int) []F {
	s := make([]F, n)
	for i := range s {
		s[i] = F(r.Normal(0, 1))
	}
	return s
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

func testIm2ColMatchesRef[F Float](t *testing.T) {
	r := rng.New(21)
	for _, g := range append(im2colGeoms(), randomGeoms(r, 60)...) {
		pos, patch := g.ColRows(), g.ColCols()
		img := randSlice[F](r, g.InC*g.InH*g.InW)
		want := make([]F, pos*patch)
		im2colRef(g, img, want)

		// Stale contents, including the padding lanes and the padded copy of
		// a previous image, must be fully overwritten.
		fwd, bwd := NewPackedBOf[F](patch, pos), NewPackedBOf[F](pos, patch)
		for _, pb := range []*PackedBOf[F]{fwd, bwd} {
			for i := range pb.data {
				pb.data[i] = -7
			}
		}
		for pass := 0; pass < 2; pass++ {
			Im2ColOf(g, img, fwd)
			Im2ColPackedOf(g, img, bwd)
		}
		if got := transposeOf(unpackB(t, fwd), patch, pos); !slices.Equal(got, want) {
			t.Fatalf("Im2ColOf differs from the reference on %+v", g)
		}
		if got := unpackB(t, bwd); !slices.Equal(got, want) {
			t.Fatalf("Im2ColPackedOf differs from the reference on %+v", g)
		}

		// Col2Im: same addends in the same order per pixel, so exact equality
		// even though the walk is tap-major instead of position-major.
		dcol := randSlice[F](r, pos*patch)
		wantImg := randSlice[F](r, len(img)) // accumulate onto non-zero pixels
		gotImg := append([]F(nil), wantImg...)
		col2imRef(g, dcol, wantImg)
		Col2ImOf(g, transposeOf(dcol, pos, patch), gotImg)
		if !slices.Equal(gotImg, wantImg) {
			t.Fatalf("Col2ImOf differs from the reference on %+v", g)
		}
	}
}

// TestIm2ColCol2ImMatchReference: the writers and Col2Im equal the
// element-by-element implementations, bit for bit, at both dtypes, on the
// model geometries and on random ones.
func TestIm2ColCol2ImMatchReference(t *testing.T) {
	t.Run("f64", testIm2ColMatchesRef[float64])
	t.Run("f32", testIm2ColMatchesRef[float32])
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
