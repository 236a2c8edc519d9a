package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	m := New(7)
	c1 := m.Fork("client", 1)
	c1Again := m.Fork("client", 1)
	c2 := m.Fork("client", 2)
	if c1.Uint64() != c1Again.Uint64() {
		t.Fatal("equal fork paths must yield equal streams")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("distinct fork paths should yield distinct streams")
	}
}

func TestForkDoesNotDisturbParent(t *testing.T) {
	a, b := New(99), New(99)
	_ = a.Fork("x", 1)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Fork must not advance the parent stream")
		}
	}
}

func TestForkUnsupportedLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsupported label type")
		}
	}()
	New(1).Fork([]int{1})
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) over 1000 draws hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Normal mean = %v, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance = %v, want ≈4", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	// The paper's fast-period duration distribution Γ(2, 40): mean 80, var 3200.
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Gamma(2, 40)
		if x < 0 {
			t.Fatalf("Gamma draw negative: %v", x)
		}
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-80) > 1.5 {
		t.Fatalf("Gamma(2,40) mean = %v, want ≈80", mean)
	}
	if math.Abs(variance-3200)/3200 > 0.05 {
		t.Fatalf("Gamma(2,40) variance = %v, want ≈3200", variance)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := New(61)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Gamma(0.5, 2)
		if x < 0 {
			t.Fatalf("Gamma draw negative: %v", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("Gamma(0.5,2) mean = %v, want ≈1", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(7)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(0.5)
	}
	if mean := sum / n; math.Abs(mean-2) > 0.05 {
		t.Fatalf("Exponential(0.5) mean = %v, want ≈2", mean)
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(8)
	out := make([]float64, 10)
	for trial := 0; trial < 100; trial++ {
		r.Dirichlet(0.1, out)
		sum := 0.0
		for _, v := range out {
			if v < 0 {
				t.Fatalf("Dirichlet component negative: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet components sum to %v, want 1", sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// With α = 0.1 the draws should be highly skewed: max component usually
	// dominates. With α = 100 they should be near-uniform.
	r := New(9)
	out := make([]float64, 10)
	skewedMax, flatMax := 0.0, 0.0
	const trials = 200
	for i := 0; i < trials; i++ {
		r.Dirichlet(0.1, out)
		skewedMax += maxOf(out)
		r.Dirichlet(100, out)
		flatMax += maxOf(out)
	}
	skewedMax /= trials
	flatMax /= trials
	if skewedMax < 0.5 {
		t.Fatalf("Dirichlet(0.1) mean max component = %v, expected strong skew (>0.5)", skewedMax)
	}
	if flatMax > 0.2 {
		t.Fatalf("Dirichlet(100) mean max component = %v, expected near-uniform (<0.2)", flatMax)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(11)
	s := r.Sample(50, 20)
	if len(s) != 20 {
		t.Fatalf("Sample returned %d items, want 20", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Sample produced duplicate or out-of-range value %d", v)
		}
		seen[v] = true
	}
}

func TestSamplePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).Sample(3, 4)
}

// Property: Uniform(lo,hi) always lies in [lo,hi) for lo<hi.
func TestUniformProperty(t *testing.T) {
	r := New(12)
	f := func(a, b float64, n uint8) bool {
		lo, hi := a, b
		// Constrain to ranges where hi-lo does not overflow and is not
		// degenerate in float64; outside that the property is vacuous.
		if !(lo < hi) || math.IsNaN(lo) || math.Abs(lo) > 1e150 || math.Abs(hi) > 1e150 || hi-lo < 1e-300 {
			return true
		}
		x := r.Uniform(lo, hi)
		return x >= lo && x < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: forking with the same integer label twice yields identical first
// draws, regardless of the label value.
func TestForkDeterminismProperty(t *testing.T) {
	m := New(77)
	f := func(label int) bool {
		return m.Fork("p", label).Uint64() == m.Fork("p", label).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(0, 1)
	}
}

func BenchmarkGamma(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gamma(2, 40)
	}
}

// TestForkHashIsFNV1a pins the fork derivation to its definition: the seed
// of a child is 64-bit FNV-1a (hash/fnv) over the parent's four state words
// and the labels, eight little-endian bytes per number and a string's bytes
// as they are. Every seeded stream in the repository depends on it.
func TestForkHashIsFNV1a(t *testing.T) {
	m := New(31)
	m.Uint64()
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range m.s {
		put(v)
	}
	h.Write([]byte("loader"))
	for _, v := range []uint64{17, 1<<40 + 3, math.Float64bits(-2.5), 0xfedc} {
		put(v)
	}
	want := New(h.Sum64())
	got := m.Fork("loader", 17, int64(1<<40+3), -2.5, uint64(0xfedc))
	if *got != *want {
		t.Fatalf("Fork state %v, want %v", got.s, want.s)
	}
}

// TestForkIntoOverwritesAndAllocatesNothing: ForkInto leaves dst in exactly
// the state Fork returns, whatever dst held (a cached normal variate
// included), and makes no allocation, labels included.
func TestForkIntoOverwritesAndAllocatesNothing(t *testing.T) {
	m := New(32)
	dst := New(33)
	dst.Normal(0, 1) // leaves a spare variate behind
	id, seq := 40000, uint64(123456)
	m.ForkInto(dst, "loader", id, seq)
	if want := m.Fork("loader", id, seq); *dst != *want {
		t.Fatalf("ForkInto state %+v, want %+v", *dst, *want)
	}
	if n := testing.AllocsPerRun(100, func() { m.ForkInto(dst, "loader", id, seq) }); n != 0 {
		t.Fatalf("ForkInto allocated %v times", n)
	}
}
