package tensor

import (
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/rng"
)

func randSlice[F Float](r *rng.RNG, n int) []F {
	s := make([]F, n)
	for i := range s {
		s[i] = F(r.Normal(0, 1))
	}
	return s
}

func randTensorOf[F Float](r *rng.RNG, dims ...int) *TensorOf[F] {
	t := NewOf[F](dims...)
	copy(t.data, randSlice[F](r, len(t.data)))
	return t
}

// sameData fails the test unless got holds want's bits (any NaN matching any
// NaN, as in the GEMM's contract).
func sameData[F Float](t *testing.T, label string, got, want []F) {
	t.Helper()
	if i := firstDiff(got, want, true); i >= 0 {
		t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
	}
}

// testPublicPaths holds the public products to refGemm on every path, at the
// shapes the models issue, serial and fanned out over row blocks.
func testPublicPaths[F Float](t *testing.T) {
	budget := cputok.Default()
	defer budget.SetCap(0)
	r := rng.New(33)
	shapes := [][3]int{
		{6, 75, 256}, {16, 150, 64}, {6, 256, 75}, {16, 64, 150}, {150, 16, 64}, // conv forward, dW, dcolᵀ
		{32, 256, 120}, {120, 32, 256}, {32, 120, 256}, {10, 84, 10}, // dense at batch 32 and 10
		{32, 8, 96}, {32, 24, 96}, {96, 32, 24}, // LSTM gates
		{161, 140, 183}, // past the parallel threshold at either dtype, ragged everywhere
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, aT := randTensorOf[F](r, m, k), NewOf[F](k, m)
		b, bT := randTensorOf[F](r, k, n), NewOf[F](n, k)
		copy(aT.data, transposeOf(a.data, m, k))
		copy(bT.data, transposeOf(b.data, k, n))
		want := make([]F, m*n)
		refProduct(want, a.data, b.data, m, k, n, false, false)
		pb := NewPackedBOf[F](k, n)
		pb.Pack(b)
		for _, tokens := range []int{1, 3} {
			budget.SetCap(tokens)
			forEachKernelPath(func(path string) {
				for name, f := range map[string]func(dst *TensorOf[F]){
					"MatMul":       func(dst *TensorOf[F]) { MatMul(dst, a, b) },
					"MatMulTransA": func(dst *TensorOf[F]) { MatMulTransA(dst, aT, b) },
					"MatMulTransB": func(dst *TensorOf[F]) { MatMulTransB(dst, a, bT) },
					"MatMulPacked": func(dst *TensorOf[F]) { MatMulPacked(dst, a, pb) },
				} {
					got := NewOf[F](m, n)
					f(got)
					sameData(t, path+" "+name, got.data, want)
				}
			})
		}
	}
}

// TestPublicProductsOnEveryPath: MatMul, MatMulTransA, MatMulTransB and
// MatMulPacked equal the definition on both kernel paths and at any token
// count.
func TestPublicProductsOnEveryPath(t *testing.T) {
	t.Run("f64", testPublicPaths[float64])
	t.Run("f32", testPublicPaths[float32])
}

// testTokenInvariance: the same GEMM, past the dtype's fan-out threshold, at
// a 1-token budget and at an 8-token one is bit-identical, and the kernel
// never holds more tokens than the budget's capacity.
func testTokenInvariance[F Float](t *testing.T, m, k, n int) {
	budget := cputok.Default()
	defer budget.SetCap(0)
	r := rng.New(11)
	a, b := randTensorOf[F](r, m, k), randTensorOf[F](r, k, n)
	budget.SetCap(1)
	serial := NewOf[F](m, n)
	MatMul(serial, a, b)
	budget.SetCap(8)
	budget.ResetMax()
	parallel := NewOf[F](m, n)
	MatMul(parallel, a, b)
	sameData(t, "token-count invariance", parallel.data, serial.data)
	if got := budget.MaxInflight(); got > 8 {
		t.Fatalf("kernel held %d tokens, budget cap is 8", got)
	}
}

func TestParallelRowsTokenInvariance(t *testing.T) { testTokenInvariance[float64](t, 80, 70, 90) }
func TestParallelRowsF32TokenInvariance(t *testing.T) {
	testTokenInvariance[float32](t, 160, 140, 180)
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
	a, b := randTensorOf[float64](r, 80, 70), randTensorOf[float64](r, 70, 90)
	got := New(80, 90)
	MatMul(got, a, b) // must complete inline without deadlock
	want := make([]float64, 80*90)
	refProduct(want, a.data, b.data, 80, 70, 90, false, false)
	sameData(t, "spent budget", got.data, want)
}

// TestParallelThresholdDtypeScaled pins the byte-based cutoff: a dtype fans
// out at equal bytes of operand traffic, not equal element count.
func TestParallelThresholdDtypeScaled(t *testing.T) {
	if got := ParallelThresholdFor[float64](); got != parallelThresholdBytes/8 {
		t.Errorf("ParallelThresholdFor[float64] = %d, want %d", got, parallelThresholdBytes/8)
	}
	if ParallelThresholdFor[float32]() != 2*ParallelThresholdFor[float64]() {
		t.Errorf("float32 threshold should be exactly twice float64's")
	}
}

// TestDetectAVX2MatchesDispatch: the dispatch variable is exactly what the
// CPU reports — there is no other input to the choice.
func TestDetectAVX2MatchesDispatch(t *testing.T) {
	if useAVX2 != detectAVX2() {
		t.Fatalf("useAVX2 = %v, detectAVX2() = %v", useAVX2, detectAVX2())
	}
	t.Logf("kernel path on this machine: avx2=%v", useAVX2)
}
