package tensor

import (
	"math"
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/rng"
)

// tensorsBitIdentical32 is tensorsBitIdentical for float32 tensors: the f32
// blocked path (AVX2 assembly or portable Go, whichever the CPU selects) promises the
// same products in the same ascending-k order as the f32 reference, so exact
// equality is required.
func tensorsBitIdentical32(t *testing.T, label string, got, want *TensorOf[float32]) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape mismatch: %v vs %v", label, got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		g, w := got.Data()[i], want.Data()[i]
		if g != w && !(g != g && w != w) {
			t.Fatalf("%s: element %d: got %v, want %v", label, i, g, w)
		}
	}
}

func randTensor32(r *rng.RNG, dims ...int) *TensorOf[float32] {
	t := NewOf[float32](dims...)
	d := t.Data()
	for i := range d {
		d[i] = float32(r.Normal(0, 1))
	}
	return t
}

// TestBlockedF32BitIdenticalToRef is TestBlockedBitIdenticalToRef for the
// float32 instantiation, sweeping tiling remainders of its 16-wide panels
// (ragged m, n either side of 8 and 16, tiny k) for all three transpose variants.
func TestBlockedF32BitIdenticalToRef(t *testing.T) {
	r := rng.New(7)
	shapes := [][3]int{
		{1, 1, 1}, {1, 3, 5}, {2, 4, 8}, {3, 7, 5}, {4, 9, 6}, {5, 13, 7},
		{2, 5, 9}, {3, 4, 15}, {7, 11, 17}, // n either side of a half and a full panel
		{6, 75, 256},  // fig7 CNN conv1 forward
		{16, 150, 64}, // conv2 forward
		{16, 120, 256}, {17, 31, 9}, {33, 64, 33},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		want := NewOf[float32](m, n)
		got := NewOf[float32](m, n)

		a := randTensor32(r, m, k)
		b := randTensor32(r, k, n)
		MatMulRef(want, a, b, false, false)
		MatMul(got, a, b)
		tensorsBitIdentical32(t, "NN f32", got, want)

		aT := randTensor32(r, k, m)
		MatMulRef(want, aT, b, true, false)
		MatMulTransA(got, aT, b)
		tensorsBitIdentical32(t, "TN f32", got, want)

		bT := randTensor32(r, n, k)
		MatMulRef(want, a, bT, false, true)
		MatMulTransB(got, a, bT)
		tensorsBitIdentical32(t, "NT f32", got, want)
	}
}

// TestGemmF32NaNInfNotMasked is the float32 twin of TestGemmNaNInfNotMasked:
// the f32 kernels (including the NT transposing pack) must
// not skip zeros or otherwise mask 0×Inf = NaN.
func TestGemmF32NaNInfNotMasked(t *testing.T) {
	r := rng.New(8)
	poison := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 4}, {6, 75, 16}, {9, 13, 11}, {5, 7, 19}} {
		m, k, n := sh[0], sh[1], sh[2]
		// A rich in exact zeros (the skip trigger), B salted with Inf/NaN.
		a := NewOf[float32](m, k)
		for i := range a.Data() {
			if r.Float64() < 0.5 {
				a.Data()[i] = 0
			} else {
				a.Data()[i] = float32(r.Normal(0, 1))
			}
		}
		b := randTensor32(r, k, n)
		for i := 0; i < 1+k*n/10; i++ {
			b.Data()[r.Intn(k*n)] = poison[r.Intn(len(poison))]
		}
		// Guarantee at least one 0×Inf pair at (0, 0).
		a.Data()[0] = 0
		b.Data()[0] = float32(math.Inf(1))

		want := NewOf[float32](m, n)
		got := NewOf[float32](m, n)
		MatMulRef(want, a, b, false, false)
		MatMul(got, a, b)
		var sawNaN bool
		for _, v := range want.Data() {
			if v != v {
				sawNaN = true
			}
		}
		if !sawNaN {
			t.Fatalf("test vector too tame: reference produced no NaN (m=%d k=%d n=%d)", m, k, n)
		}
		tensorsBitIdentical32(t, "NN f32 with NaN/Inf", got, want)

		aT := NewOf[float32](k, m)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				aT.Data()[i*m+j] = a.Data()[j*k+i]
			}
		}
		MatMulRef(want, aT, b, true, false)
		MatMulTransA(got, aT, b)
		tensorsBitIdentical32(t, "TN f32 with NaN/Inf", got, want)

		bT := NewOf[float32](n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bT.Data()[i*k+j] = b.Data()[j*n+i]
			}
		}
		MatMulRef(want, a, bT, false, true)
		MatMulTransB(got, a, bT)
		tensorsBitIdentical32(t, "NT f32 with NaN/Inf", got, want)
	}
}

// TestMatMulPackedF32MatchesMatMul: the float32 pre-packed operand path must
// match MatMul bit for bit, like its float64 counterpart.
func TestMatMulPackedF32MatchesMatMul(t *testing.T) {
	r := rng.New(9)
	for _, sh := range [][3]int{{1, 1, 1}, {5, 7, 3}, {16, 64, 150}, {8, 33, 17}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randTensor32(r, m, k)
		b := randTensor32(r, k, n)
		want := NewOf[float32](m, n)
		MatMul(want, a, b)
		pb := NewPackedBOf[float32](k, n)
		pb.Pack(b)
		got := NewOf[float32](m, n)
		MatMulPacked(got, a, pb)
		tensorsBitIdentical32(t, "packed f32", got, want)
	}
}

// TestIm2ColPackedF32MatchesIm2ColPlusPack mirrors the float64 fused-pack
// test over the 16-wide float32 panel layout.
func TestIm2ColPackedF32MatchesIm2ColPlusPack(t *testing.T) {
	r := rng.New(10)
	geoms := []ConvGeom{
		NewConvGeom(3, 16, 16, 5, 5, 1, 2), // fig7 CNN conv1
		NewConvGeom(6, 8, 8, 5, 5, 1, 2),   // fig7 CNN conv2
		NewConvGeom(2, 6, 5, 3, 3, 2, 1),   // strided, ragged
		NewConvGeom(1, 4, 4, 1, 1, 1, 0),   // 1×1
	}
	for _, g := range geoms {
		img := make([]float32, g.InC*g.InH*g.InW)
		for i := range img {
			img[i] = float32(r.Normal(0, 1))
		}
		col := NewOf[float32](g.ColRows(), g.ColCols())
		im2colRef(g, img, col.Data())
		want := NewPackedBOf[float32](g.ColRows(), g.ColCols())
		want.Pack(col)

		got := NewPackedBOf[float32](g.ColRows(), g.ColCols())
		for i := range got.data {
			got.data[i] = float32(math.NaN()) // stale garbage must be fully overwritten
		}
		Im2ColPackedOf(g, img, got)
		for i := range want.data {
			w, gv := want.data[i], got.data[i]
			if gv != w && !(gv != gv && w != w) {
				t.Fatalf("geom %+v: packed[%d] = %v, want %v", g, i, gv, w)
			}
		}
	}
}

// TestParallelRowsF32TokenInvariance: the float32 kernel fan-out must be
// bit-identical at tokens=1 vs tokens=8, with the byte-based threshold
// crossed (160·140·180 MACs > 1<<18).
func TestParallelRowsF32TokenInvariance(t *testing.T) {
	budget := cputok.Default()
	defer budget.SetCap(0)

	r := rng.New(11)
	a := randTensor32(r, 160, 140)
	b := randTensor32(r, 140, 180)

	budget.SetCap(1)
	serial := NewOf[float32](160, 180)
	MatMul(serial, a, b)

	budget.SetCap(8)
	budget.ResetMax()
	parallel := NewOf[float32](160, 180)
	MatMul(parallel, a, b)
	tensorsBitIdentical32(t, "f32 token-count invariance", parallel, serial)
	if got := budget.MaxInflight(); got > 8 {
		t.Fatalf("kernel held %d tokens, budget cap is 8", got)
	}
}

// TestParallelThresholdDtypeScaled pins the byte-based cutoff: the threshold
// in elements must scale inversely with element size so a dtype fans out at
// equal useful work, not equal element count.
func TestParallelThresholdDtypeScaled(t *testing.T) {
	cases := []struct {
		name  string
		got   int
		bytes int
	}{
		{"float64", ParallelThresholdFor[float64](), 8},
		{"float32", ParallelThresholdFor[float32](), 4},
	}
	for _, c := range cases {
		want := ParallelThresholdBytes / c.bytes
		if c.got != want {
			t.Errorf("ParallelThresholdFor[%s] = %d, want %d", c.name, c.got, want)
		}
	}
	if ParallelThresholdFor[float64]() != ParallelThreshold {
		t.Errorf("float64 threshold %d diverged from legacy ParallelThreshold %d",
			ParallelThresholdFor[float64](), ParallelThreshold)
	}
	if ParallelThresholdFor[float32]() != 2*ParallelThresholdFor[float64]() {
		t.Errorf("float32 threshold should be exactly twice float64's")
	}
}
