package tensor

import (
	"math"
	"testing"

	"fedca/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("Size = %d, want 6", x.Size())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestViewOfSharesStorage(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	x := ViewOf(nil, data, 2, 3)
	if x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 || &x.Data()[0] != &data[0] {
		t.Fatalf("ViewOf(nil, 6 elements, 2, 3) = shape %v over a copy", x.Shape())
	}
	data[4] = 9
	if x.Data()[4] != 9 {
		t.Fatal("a view must see writes to its storage")
	}
}

func TestViewOfSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ViewOf(nil, []float64{1, 2, 3}, 2, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := ViewOf(nil, []float64{1, 2, 3}, 3)
	b := ViewOf(nil, []float64{4, 5, 6}, 3)
	c := New(3)
	c.AddInto(a, b)
	want := []float64{5, 7, 9}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("AddInto[%d] = %v, want %v", i, v, want[i])
		}
	}
	a.Add(b)
	if a.Data()[2] != 9 {
		t.Fatal("in-place Add wrong")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Add(New(3))
}

func TestArgMaxRow(t *testing.T) {
	x := ViewOf(nil, []float64{0.1, 0.9, 0.3, 0.8, 0.2, 0.05}, 2, 3)
	if x.ArgMaxRow(0) != 1 {
		t.Fatal("ArgMaxRow(0) wrong")
	}
	if x.ArgMaxRow(1) != 0 {
		t.Fatal("ArgMaxRow(1) wrong")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := ViewOf(nil, []float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := ViewOf(nil, []float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMul(c, a, b)
	sameData(t, "2×3·3×2", c.Data(), []float64{58, 64, 139, 154})
}

// checkProduct computes one public product of random operands and holds it
// to the definition.
func checkProduct(t *testing.T, seed uint64, m, k, n int, transA, transB bool) {
	t.Helper()
	r := rng.New(seed)
	a, b := randSlice[float64](r, m*k), randSlice[float64](r, k*n)
	c := New(m, n)
	switch {
	case transA:
		MatMulTransA(c, ViewOf(nil, a, k, m), ViewOf(nil, b, k, n))
	case transB:
		MatMulTransB(c, ViewOf(nil, a, m, k), ViewOf(nil, b, n, k))
	default:
		MatMul(c, ViewOf(nil, a, m, k), ViewOf(nil, b, k, n))
	}
	want := make([]float64, m*n)
	refProduct(want, a, b, m, k, n, transA, transB)
	sameData(t, "product", c.Data(), want)
}

func TestMatMulMatchesNaive(t *testing.T) {
	for _, d := range [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 9, 13}, {64, 32, 48}} {
		checkProduct(t, 1, d[0], d[1], d[2], false, false)
	}
}

// TestMatMulLargeParallelMatchesNaive: big enough to cross the parallel
// threshold.
func TestMatMulLargeParallelMatchesNaive(t *testing.T) { checkProduct(t, 2, 80, 70, 90, false, false) }
func TestMatMulTransA(t *testing.T)                    { checkProduct(t, 3, 5, 7, 6, true, false) }
func TestMatMulTransB(t *testing.T)                    { checkProduct(t, 4, 5, 7, 6, false, true) }

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestConvGeom(t *testing.T) {
	g := NewConvGeom(3, 32, 32, 5, 5, 1, 2)
	if g.OutH != 32 || g.OutW != 32 {
		t.Fatalf("same-padding geometry wrong: %dx%d", g.OutH, g.OutW)
	}
	g2 := NewConvGeom(1, 28, 28, 5, 5, 1, 0)
	if g2.OutH != 24 || g2.OutW != 24 {
		t.Fatalf("valid geometry wrong: %dx%d", g2.OutH, g2.OutW)
	}
	g3 := NewConvGeom(16, 16, 16, 3, 3, 2, 1)
	if g3.OutH != 8 || g3.OutW != 8 {
		t.Fatalf("strided geometry wrong: %dx%d", g3.OutH, g3.OutW)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: col matrix is just the image transposed
	// into (H*W) rows × C cols.
	g := NewConvGeom(2, 3, 3, 1, 1, 1, 0)
	img := make([]float64, 18)
	for i := range img {
		img[i] = float64(i)
	}
	pb := NewPackedBOf[float64](g.ColRows(), g.ColCols())
	Im2ColPackedOf(g, img, pb)
	col := unpackB(t, pb)
	// Row p of col should be [img[0*9+p], img[1*9+p]].
	for p := 0; p < 9; p++ {
		if col[p*2] != float64(p) || col[p*2+1] != float64(9+p) {
			t.Fatalf("Im2Col 1x1 wrong at position %d: %v", p, col[p*2:p*2+2])
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := NewConvGeom(1, 2, 2, 3, 3, 1, 1)
	img := []float64{1, 2, 3, 4}
	pb := NewPackedBOf[float64](g.ColRows(), g.ColCols())
	Im2ColPackedOf(g, img, pb)
	col := unpackB(t, pb)
	// Output position (0,0): 3x3 patch centered at (0,0) with pad 1.
	// Patch rows: (-1,-1..1)=0s; (0,-1)=0,(0,0)=1,(0,1)=2; (1,-1)=0,(1,0)=3,(1,1)=4.
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, w := range want {
		if col[i] != w {
			t.Fatalf("Im2Col pad patch[%d] = %v, want %v (%v)", i, col[i], w, col[:9])
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// Adjoint property: <Im2Col(x), y> == <x, Col2Im(y)> for all x, y, in
	// the patch-rows × position-columns orientation both use.
	r := rng.New(5)
	g := NewConvGeom(2, 6, 5, 3, 3, 2, 1)
	imgLen := g.InC * g.InH * g.InW
	colLen := g.ColRows() * g.ColCols()
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, imgLen)
		y := make([]float64, colLen)
		for i := range x {
			x[i] = r.Normal(0, 1)
		}
		for i := range y {
			y[i] = r.Normal(0, 1)
		}
		pb := NewPackedBOf[float64](g.ColCols(), g.ColRows())
		Im2ColOf(g, x, pb)
		cx := unpackB(t, pb)
		ay := make([]float64, imgLen)
		Col2ImOf(g, y, ay)
		var lhs, rhs float64
		for i := range cx {
			lhs += cx[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * ay[i]
		}
		if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
		}
	}
}

// Property: MatMul distributes over addition: (A+A')B == AB + A'B.
func TestMatMulLinearityProperty(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 10; trial++ {
		m, k, n := 4+r.Intn(8), 3+r.Intn(8), 2+r.Intn(8)
		a1, a2 := randTensorOf[float64](r, m, k), randTensorOf[float64](r, m, k)
		b := randTensorOf[float64](r, k, n)
		sum := New(m, k)
		sum.AddInto(a1, a2)
		left := New(m, n)
		MatMul(left, sum, b)
		c1, c2 := New(m, n), New(m, n)
		MatMul(c1, a1, b)
		MatMul(c2, a2, b)
		c1.Add(c2)
		for i, v := range left.Data() {
			if math.Abs(v-c1.Data()[i]) > 1e-9 {
				t.Fatalf("element %d: (A+A')B = %v, AB + A'B = %v", i, v, c1.Data()[i])
			}
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	x, y := randTensorOf[float64](r, 128, 128), randTensorOf[float64](r, 128, 128)
	c := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, x, y)
	}
}
