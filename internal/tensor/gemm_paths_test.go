package tensor

import (
	"math"
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/rng"
)

// forEachKernelPath runs body once per kernel path the machine can execute:
// always the portable Go kernel, and the AVX2 assembly when the CPU has it.
// It flips the package's dispatch variable, which nothing else ever writes.
// body gets the path's name for its failure messages; there is no subtest per
// call because the sweeps call this thousands of times.
func forEachKernelPath(body func(path string)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	body("portable")
	if detectAVX2() {
		useAVX2 = true
		body("avx2")
	}
}

// refGemm is the definition the kernels are held to, on raw operands:
// c[i][j] = Σ_p a[i·ars + p·aps] · b[p][j], products rounded then added in
// ascending p, starting from +0.
func refGemm[F Float](c, a []F, ars, aps int, b []F, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s F
			for p := 0; p < k; p++ {
				s += F(a[i*ars+p*aps] * b[p*n+j])
			}
			c[i*n+j] = s
		}
	}
}

// sameBits reports whether two results are the same value down to the sign
// of zero; any NaN matches any NaN (the payload is not part of the contract).
func sameBits[F Float](a, b F) bool {
	x, y := float64(a), float64(b)
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

const guard = -12345.5

// runPaths computes one product on every path and compares each result with
// want. Operands are placed off elements into their buffers, so the vector
// loads and stores see every alignment; the tail of c past m·n is a guard
// the kernels must not touch.
func runPaths[F Float](t *testing.T, label string, a []F, ars, aps int, packed []F, want []F, m, k, n, off int) {
	t.Helper()
	ab := append(make([]F, off), a...)
	pb := append(make([]F, off), packed...)
	cb := make([]F, off+m*n+2*gemmNR32)
	forEachKernelPath(func(path string) {
		for i := range cb {
			cb[i] = guard
		}
		gemmPacked(cb[off:], ab[off:], ars, aps, pb[off:], m, k, n)
		for i, w := range want {
			if got := cb[off+i]; !sameBits(got, w) {
				t.Fatalf("%s %s m=%d k=%d n=%d off=%d: c[%d][%d] = %v, want %v", path, label, m, k, n, off, i/n, i%n, got, w)
			}
		}
		for i, v := range cb {
			if (i < off || i >= off+m*n) && v != guard {
				t.Fatalf("%s %s m=%d k=%d n=%d off=%d: wrote outside C at %d", path, label, m, k, n, off, i-off)
			}
		}
	})
}

func testKernelPaths[F Float](t *testing.T, salt func(r *rng.RNG, a, b []F)) {
	r := rng.New(31)
	nr := gemmNROf[F]()
	ms := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13}                // around the 4-row tile
	ns := []int{0, 1, nr - 1, nr, nr + 1, 2*nr - 1, 2*nr + 3} // around the panel width
	ks := []int{0, 1, 2, 3, 5, 17}
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				a, b := randSlice[F](r, m*k), randSlice[F](r, k*n)
				if salt != nil {
					salt(r, a, b)
				}
				packed := make([]F, packLen[F](k, n))
				packPanels(packed, b, k, n)
				want := make([]F, m*n)
				off := (m + n + k) % 4
				// A read by rows (NN, NT) ...
				refGemm(want, a, k, 1, b, m, k, n)
				runPaths(t, "rows", a, k, 1, packed, want, m, k, n, off)
				// ... and the same A stored k×m, read by columns (the TN walk).
				runPaths(t, "cols", transposeOf(a, m, k), 1, m, packed, want, m, k, n, off)
			}
		}
	}
}

// TestKernelPathsBitIdentical: AVX2 assembly ≡ portable Go ≡ the ascending-k
// definition, bit for bit, at both dtypes, over ragged m/n/k (0, 1, one
// either side of the tile and the panel), every operand alignment and both
// walks of A.
func TestKernelPathsBitIdentical(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testKernelPaths[float64](t, nil) })
	t.Run("f32", func(t *testing.T) { testKernelPaths[float32](t, nil) })
}

// TestKernelPathsNaNInf repeats the sweep with operands rich in exact zeros
// on one side and ±Inf/NaN on the other: no path may skip a zero (0×Inf is
// NaN) or flush anything.
func TestKernelPathsNaNInf(t *testing.T) {
	salt := func(r *rng.RNG, a, b []float64) {
		poison := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}
		for i := range a {
			if r.Float64() < 0.5 {
				a[i] = 0
			}
		}
		for i := 0; i < 1+len(b)/8 && len(b) > 0; i++ {
			b[r.Intn(len(b))] = poison[r.Intn(len(poison))]
		}
		if len(a) > 0 && len(b) > 0 {
			a[0], b[0] = 0, math.Inf(1)
		}
	}
	t.Run("f64", func(t *testing.T) { testKernelPaths[float64](t, salt) })
	t.Run("f32", func(t *testing.T) {
		testKernelPaths[float32](t, func(r *rng.RNG, a, b []float32) {
			a64, b64 := make([]float64, len(a)), make([]float64, len(b))
			for i := range a {
				a64[i] = float64(a[i])
			}
			for i := range b {
				b64[i] = float64(b[i])
			}
			salt(r, a64, b64)
			for i := range a {
				a[i] = float32(a64[i])
			}
			for i := range b {
				b[i] = float32(b64[i]) // MaxFloat64 narrows to +Inf, the denormal to 0: both fine
			}
		})
	})
}

// testPackPaths holds both packs, on both paths, to the layout's definition:
// packed[pj·k·NR + p·NR + jj] = B[p][pj·NR + jj], zero past n. Stale buffer
// contents must not survive, and nothing outside the panels may be written.
func testPackPaths[F Float](t *testing.T) {
	r := rng.New(35)
	nr := gemmNROf[F]()
	for _, k := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33} { // around the 4- and 8-wide register transposes
		for _, n := range []int{1, 7, 8, 9, nr - 1, nr, nr + 1, nr + 8, 2*nr + 3, 75} {
			b := randSlice[F](r, k*n)
			bT := transposeOf(b, k, n)
			want := make([]F, packLen[F](k, n))
			for i := range want {
				if j := i/(k*nr)*nr + i%nr; j < n {
					want[i] = b[i/nr%k*n+j]
				}
			}
			forEachKernelPath(func(path string) {
				for name, pack := range map[string]func(dst []F){
					"packPanels":  func(dst []F) { packPanels(dst, b, k, n) },
					"packPanelsT": func(dst []F) { packPanelsT(dst, bT, k, n) },
				} {
					buf := make([]F, len(want)+2)
					for i := range buf {
						buf[i] = guard
					}
					pack(buf[1 : 1+len(want)])
					for i, w := range want {
						if !sameBits(buf[1+i], w) {
							t.Fatalf("%s %s k=%d n=%d: packed[%d] = %v, want %v", path, name, k, n, i, buf[1+i], w)
						}
					}
					if buf[0] != guard || buf[len(buf)-1] != guard {
						t.Fatalf("%s %s k=%d n=%d: wrote outside the panels", path, name, k, n)
					}
				}
			})
		}
	}
}

// TestPackPathsMatchDefinition: the row-major and the transposing pack build
// the documented panel layout on both paths at both dtypes.
func TestPackPathsMatchDefinition(t *testing.T) {
	t.Run("f64", testPackPaths[float64])
	t.Run("f32", testPackPaths[float32])
}

// testPublicPaths holds the four public products to MatMulRef on every path,
// at the shapes the models issue, serial and fanned out over row blocks.
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
		want := NewOf[F](m, n)
		MatMulRef(want, a, b, false, false)
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
					for i, w := range want.data {
						if !sameBits(got.data[i], w) {
							t.Fatalf("%s %s %v tokens=%d: element %d = %v, want %v", path, name, sh, tokens, i, got.data[i], w)
						}
					}
				}
			})
		}
	}
}

// TestPublicProductsOnEveryPath: MatMul, MatMulTransA, MatMulTransB and
// MatMulPacked equal MatMulRef on both kernel paths and at any token count.
func TestPublicProductsOnEveryPath(t *testing.T) {
	t.Run("f64", testPublicPaths[float64])
	t.Run("f32", testPublicPaths[float32])
}

// TestDetectAVX2MatchesDispatch: the dispatch variable is exactly what the
// CPU reports — there is no other input to the choice.
func TestDetectAVX2MatchesDispatch(t *testing.T) {
	if useAVX2 != detectAVX2() {
		t.Fatalf("useAVX2 = %v, detectAVX2() = %v", useAVX2, detectAVX2())
	}
	t.Logf("kernel path on this machine: avx2=%v", useAVX2)
}
