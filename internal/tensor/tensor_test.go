package tensor

import (
	"math"
	"testing"
	"testing/quick"

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

func TestFromSliceAndAt(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(0, 2) != 3 || x.At(1, 0) != 4 || x.At(1, 2) != 6 {
		t.Fatalf("row-major indexing wrong: %v", x.Data())
	}
	x.Set(9, 1, 1)
	if x.At(1, 1) != 9 {
		t.Fatal("Set did not stick")
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data()[0] = 42
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must alias storage")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Reshape(5)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 7
	if x.At(0) != 1 {
		t.Fatal("Clone must copy storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	c := New(3)
	c.AddInto(a, b)
	want := []float64{5, 7, 9}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("AddInto[%d] = %v, want %v", i, v, want[i])
		}
	}
	c.SubInto(b, a)
	for i, v := range c.Data() {
		if v != 3 {
			t.Fatalf("SubInto[%d] = %v, want 3", i, v)
		}
	}
	a.Add(b)
	if a.At(2) != 9 {
		t.Fatal("in-place Add wrong")
	}
	a.Sub(b)
	if a.At(2) != 3 {
		t.Fatal("in-place Sub wrong")
	}
	a.Scale(2)
	if a.At(0) != 2 {
		t.Fatal("Scale wrong")
	}
	a.AXPY(0.5, b) // a = [2,4,6] + 0.5[4,5,6] = [4, 6.5, 9]
	if a.At(1) != 6.5 {
		t.Fatalf("AXPY wrong: %v", a.Data())
	}
	a.MulElem(b)
	if a.At(0) != 16 {
		t.Fatalf("MulElem wrong: %v", a.Data())
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

func TestDotNormSum(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 2)
	b := FromSlice([]float64{1, 2}, 2)
	if Dot(a, b) != 11 {
		t.Fatalf("Dot = %v, want 11", Dot(a, b))
	}
	if a.Norm() != 5 {
		t.Fatalf("Norm = %v, want 5", a.Norm())
	}
	if a.Sum() != 7 {
		t.Fatalf("Sum = %v, want 7", a.Sum())
	}
	if got := FromSlice([]float64{-3, 2}, 2).MaxAbs(); got != 3 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float64{0.1, 0.9, 0.3, 0.8, 0.2, 0.05}, 2, 3)
	if x.ArgMaxRow(0) != 1 {
		t.Fatal("ArgMaxRow(0) wrong")
	}
	if x.ArgMaxRow(1) != 0 {
		t.Fatal("ArgMaxRow(1) wrong")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := FromSlice([]float64{1, 0}, 2)
	b := FromSlice([]float64{0, 1}, 2)
	if got := CosineSimilarity(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cos(a,a) = %v, want 1", got)
	}
	if got := CosineSimilarity(a, b); math.Abs(got) > 1e-12 {
		t.Fatalf("cos(orthogonal) = %v, want 0", got)
	}
	neg := FromSlice([]float64{-1, 0}, 2)
	if got := CosineSimilarity(a, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("cos(opposite) = %v, want -1", got)
	}
	zero := New(2)
	if got := CosineSimilarity(zero, zero); got != 1 {
		t.Fatalf("cos(0,0) = %v, want 1 by convention", got)
	}
	if got := CosineSimilarity(zero, a); got != 0 {
		t.Fatalf("cos(0,a) = %v, want 0", got)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func randTensor(r *rng.RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data() {
		t.Data()[i] = r.Normal(0, 1)
	}
	return t
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: %v vs %v", got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > tol {
			t.Fatalf("element %d: got %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMul(c, a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	tensorsClose(t, c, want, 1e-12)
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 9, 13}, {64, 32, 48}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		c := New(m, n)
		MatMul(c, a, b)
		tensorsClose(t, c, naiveMatMul(a, b), 1e-9)
	}
}

func TestMatMulLargeParallelMatchesNaive(t *testing.T) {
	// Big enough to cross the parallel threshold.
	r := rng.New(2)
	a := randTensor(r, 80, 70)
	b := randTensor(r, 70, 90)
	c := New(80, 90)
	MatMul(c, a, b)
	tensorsClose(t, c, naiveMatMul(a, b), 1e-9)
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(3)
	aT := randTensor(r, 7, 5) // stores A as k×m with k=7, m=5
	b := randTensor(r, 7, 6)
	c := New(5, 6)
	MatMulTransA(c, aT, b)
	// Build explicit A = aTᵀ and compare.
	a := New(5, 7)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			a.Set(aT.At(j, i), i, j)
		}
	}
	tensorsClose(t, c, naiveMatMul(a, b), 1e-9)
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(4)
	a := randTensor(r, 5, 7)
	bT := randTensor(r, 6, 7) // stores B as n×k
	c := New(5, 6)
	MatMulTransB(c, a, bT)
	b := New(7, 6)
	for i := 0; i < 7; i++ {
		for j := 0; j < 6; j++ {
			b.Set(bT.At(j, i), i, j)
		}
	}
	tensorsClose(t, c, naiveMatMul(a, b), 1e-9)
}

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

// Property: cosine similarity is always within [-1, 1] and symmetric.
func TestCosineSimilarityProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) == 0 {
			return true
		}
		if len(b) > len(a) {
			b = b[:len(a)]
		}
		for len(b) < len(a) {
			b = append(b, 0)
		}
		for _, v := range append(append([]float64{}, a...), b...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		s1 := CosineSimilaritySlices(a, b)
		s2 := CosineSimilaritySlices(b, a)
		return s1 >= -1-1e-9 && s1 <= 1+1e-9 && math.Abs(s1-s2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: (A+A')B == AB + A'B.
func TestMatMulLinearityProperty(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 10; trial++ {
		m, k, n := 4+r.Intn(8), 3+r.Intn(8), 2+r.Intn(8)
		a1, a2 := randTensor(r, m, k), randTensor(r, m, k)
		b := randTensor(r, k, n)
		sum := a1.Clone()
		sum.Add(a2)
		left := New(m, n)
		MatMul(left, sum, b)
		c1, c2 := New(m, n), New(m, n)
		MatMul(c1, a1, b)
		MatMul(c2, a2, b)
		c1.Add(c2)
		tensorsClose(t, left, c1, 1e-9)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 128, 128)
	y := randTensor(r, 128, 128)
	c := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, x, y)
	}
}
