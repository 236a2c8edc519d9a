package tensor

import (
	"math"
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/rng"
)

// tensorsBitIdentical asserts exact equality — the blocked kernels promise
// the same products in the same accumulation order as the reference, so for
// finite inputs there is no tolerance to grant.
func tensorsBitIdentical(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape mismatch: %v vs %v", label, got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		g, w := got.Data()[i], want.Data()[i]
		if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d: got %v, want %v", label, i, g, w)
		}
	}
}

// TestBlockedBitIdenticalToRef sweeps shapes around every tiling remainder
// (m % MR, n % NR, tiny k, k of 1) for all three transpose variants and
// asserts bit-identity with the unblocked reference kernel.
func TestBlockedBitIdenticalToRef(t *testing.T) {
	r := rng.New(7)
	shapes := [][3]int{
		{1, 1, 1}, {1, 3, 5}, {2, 4, 4}, {3, 7, 5}, {4, 9, 6}, {5, 13, 7},
		{6, 75, 256},  // fig7 CNN conv1 forward
		{16, 150, 64}, // conv2 forward
		{16, 120, 256}, {17, 31, 9}, {33, 64, 33},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		want := New(m, n)
		got := New(m, n)

		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		MatMulRef(want, a, b, false, false)
		MatMul(got, a, b)
		tensorsBitIdentical(t, "NN", got, want)

		aT := randTensor(r, k, m)
		MatMulRef(want, aT, b, true, false)
		MatMulTransA(got, aT, b)
		tensorsBitIdentical(t, "TN", got, want)

		bT := randTensor(r, n, k)
		MatMulRef(want, a, bT, false, true)
		MatMulTransB(got, a, bT)
		tensorsBitIdentical(t, "NT", got, want)
	}
}

// TestGemmNaNInfNotMasked is the regression test for the zero-skip bug: the
// old kernels skipped a[i][p] == 0, so a 0×Inf product — NaN by IEEE 754 —
// silently became a finite output. That let chaos-injected Inf corruption
// evade MaxDeltaNorm quarantine (the quarantine checks the *delta*; a layer
// whose forward swallowed the NaN produces a clean-looking finite delta) and
// made kernel timing data-dependent. The kernels must now agree with the
// reference: NaN stays NaN.
func TestGemmNaNInfNotMasked(t *testing.T) {
	r := rng.New(8)
	poison := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 4}, {6, 75, 16}, {9, 13, 11}} {
		m, k, n := sh[0], sh[1], sh[2]
		// A rich in exact zeros (the skip trigger), B salted with Inf/NaN.
		a := New(m, k)
		for i := range a.Data() {
			if r.Float64() < 0.5 {
				a.Data()[i] = 0
			} else {
				a.Data()[i] = r.Normal(0, 1)
			}
		}
		b := randTensor(r, k, n)
		for i := 0; i < 1+k*n/10; i++ {
			b.Data()[r.Intn(k*n)] = poison[r.Intn(len(poison))]
		}
		// Guarantee at least one 0×Inf pair at (0, 0) so even the 1×1×1
		// shape exercises the masked-NaN case.
		a.Data()[0] = 0
		b.Data()[0] = math.Inf(1)

		want := New(m, n)
		got := New(m, n)
		MatMulRef(want, a, b, false, false)
		MatMul(got, a, b)
		var sawNaN bool
		for _, v := range want.Data() {
			if math.IsNaN(v) {
				sawNaN = true
			}
		}
		if !sawNaN {
			t.Fatalf("test vector too tame: reference produced no NaN (m=%d k=%d n=%d)", m, k, n)
		}
		tensorsBitIdentical(t, "NN with NaN/Inf", got, want)

		// Same property for the transposed variants (gemmTN had the same
		// skip; gemmNT never did but must stay honest too).
		aT := New(k, m)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				aT.Data()[i*m+j] = a.Data()[j*k+i]
			}
		}
		MatMulRef(want, aT, b, true, false)
		MatMulTransA(got, aT, b)
		tensorsBitIdentical(t, "TN with NaN/Inf", got, want)

		bT := New(n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bT.Data()[i*k+j] = b.Data()[j*n+i]
			}
		}
		MatMulRef(want, a, bT, false, true)
		MatMulTransB(got, a, bT)
		tensorsBitIdentical(t, "NT with NaN/Inf", got, want)
	}
}

// TestMatMulPackedMatchesMatMul: packing B up front must change nothing but
// the call shape, for B as stored (MatMul) and for Bᵀ (MatMulTransB).
func TestMatMulPackedMatchesMatMul(t *testing.T) {
	r := rng.New(9)
	for _, sh := range [][3]int{{1, 1, 1}, {5, 7, 3}, {16, 64, 150}, {8, 33, 17}, {32, 24, 96}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		want := New(m, n)
		MatMul(want, a, b)
		pb := NewPackedBOf[float64](k, n)
		pb.Pack(b)
		got := New(m, n)
		MatMulPacked(got, a, pb)
		tensorsBitIdentical(t, "packed", got, want)

		bT := randTensor(r, n, k)
		MatMulTransB(want, a, bT)
		pb.PackTrans(bT) // over the stale panels of b
		MatMulPacked(got, a, pb)
		tensorsBitIdentical(t, "packed transposed", got, want)
	}
}

// TestIm2ColPackedMatchesIm2ColPlusPack: the fused pack must produce exactly
// Im2Col followed by Pack, including the zero-padded panel edge and padding
// pixels, and must overwrite stale data in a reused buffer.
func TestIm2ColPackedMatchesIm2ColPlusPack(t *testing.T) {
	r := rng.New(10)
	geoms := []ConvGeom{
		NewConvGeom(3, 16, 16, 5, 5, 1, 2), // fig7 CNN conv1
		NewConvGeom(6, 8, 8, 5, 5, 1, 2),   // fig7 CNN conv2
		NewConvGeom(2, 6, 5, 3, 3, 2, 1),   // strided, ragged
		NewConvGeom(1, 4, 4, 1, 1, 1, 0),   // 1×1
	}
	for _, g := range geoms {
		img := make([]float64, g.InC*g.InH*g.InW)
		for i := range img {
			img[i] = r.Normal(0, 1)
		}
		col := New(g.ColRows(), g.ColCols())
		im2colRef(g, img, col.Data())
		want := NewPackedBOf[float64](g.ColRows(), g.ColCols())
		want.Pack(col)

		got := NewPackedBOf[float64](g.ColRows(), g.ColCols())
		for i := range got.data {
			got.data[i] = math.NaN() // stale garbage must be fully overwritten
		}
		Im2ColPackedOf(g, img, got)
		for i := range want.data {
			if got.data[i] != want.data[i] {
				t.Fatalf("geom %+v: packed[%d] = %v, want %v", g, i, got.data[i], want.data[i])
			}
		}
	}
}

// TestParallelRowsTokenInvariance: the same GEMM at a 1-token budget and at a
// many-token budget must be bit-identical, and the kernel must never hold
// more tokens than the budget's capacity.
func TestParallelRowsTokenInvariance(t *testing.T) {
	budget := cputok.Default()
	defer budget.SetCap(0)

	r := rng.New(11)
	// Big enough to cross ParallelThreshold so the fan-out path runs.
	a := randTensor(r, 80, 70)
	b := randTensor(r, 70, 90)

	budget.SetCap(1)
	serial := New(80, 90)
	MatMul(serial, a, b)

	budget.SetCap(8)
	budget.ResetMax()
	parallel := New(80, 90)
	MatMul(parallel, a, b)
	tensorsBitIdentical(t, "token-count invariance", parallel, serial)
	if got := budget.MaxInflight(); got > 8 {
		t.Fatalf("kernel held %d tokens, budget cap is 8", got)
	}
}

// TestParallelRowsDegradesWhenBudgetSpent: with every token already out, a
// heavy GEMM must run inline rather than block or spawn.
func TestParallelRowsDegradesWhenBudgetSpent(t *testing.T) {
	budget := cputok.Default()
	defer budget.SetCap(0)
	budget.SetCap(2)
	taken := budget.Borrow(2)
	if taken != 2 {
		t.Fatalf("setup: borrowed %d tokens, want 2", taken)
	}
	defer budget.Return(taken)

	r := rng.New(12)
	a := randTensor(r, 80, 70)
	b := randTensor(r, 70, 90)
	got := New(80, 90)
	MatMul(got, a, b) // must complete inline without deadlock
	want := New(80, 90)
	MatMulRef(want, a, b, false, false)
	tensorsBitIdentical(t, "spent budget", got, want)
}
