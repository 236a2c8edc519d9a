package compress

import (
	"math"
	"testing"
	"testing/quick"
)

// compressed compresses vec into a fresh vector.
func compressed(c IntoCompressor, vec []float64) ([]float64, float64) {
	out := make([]float64, len(vec))
	return out, c.CompressInto(vec, out)
}

func TestNoneIsIdentity(t *testing.T) {
	v := []float64{1, -2, 0.5}
	out, bytes := compressed(None{}, v)
	for i := range v {
		if out[i] != v[i] {
			t.Fatal("None must not change values")
		}
	}
	if bytes != 12 {
		t.Fatalf("bytes = %v, want 12", bytes)
	}
	// Must be a copy, not an alias.
	out[0] = 99
	if v[0] == 99 {
		t.Fatal("None must copy")
	}
}

func TestQSGDBytes(t *testing.T) {
	q := QSGD{Levels: 7} // 15 buckets → 4 bits
	if q.BitsPerElement() != 4 {
		t.Fatalf("bits = %v", q.BitsPerElement())
	}
	_, bytes := compressed(q, make([]float64, 1000))
	if bytes != 4+4*1000/8 {
		t.Fatalf("bytes = %v", bytes)
	}
}

func TestQSGDQuantizes(t *testing.T) {
	q := QSGD{Levels: 2}
	v := []float64{1.0, 0.6, 0.2, -0.9, 0}
	out, _ := compressed(q, v)
	// scale = 1; buckets at 0, 0.5, 1.0.
	want := []float64{1.0, 0.5, 0, -1.0, 0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestQSGDZeroVector(t *testing.T) {
	out, bytes := compressed(QSGD{Levels: 7}, []float64{0, 0})
	if out[0] != 0 || out[1] != 0 || bytes <= 0 {
		t.Fatal("zero vector mishandled")
	}
}

func TestQSGDErrorBounded(t *testing.T) {
	// Max quantization error ≤ scale/(2·Levels).
	q := QSGD{Levels: 8}
	v := []float64{0.93, -0.11, 0.47, 0.05, -0.78, 1.0}
	out, _ := compressed(q, v)
	bound := 1.0 / 16
	for i := range v {
		if math.Abs(out[i]-v[i]) > bound+1e-12 {
			t.Fatalf("error %v exceeds bound %v", math.Abs(out[i]-v[i]), bound)
		}
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	v := []float64{0.1, -5, 0.2, 3, -0.05}
	out, bytes := compressed(TopK{Frac: 0.4}, v) // keep 2
	want := []float64{0, -5, 0, 3, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
	if bytes != 16 {
		t.Fatalf("bytes = %v, want 16", bytes)
	}
}

func TestTopKAtLeastOne(t *testing.T) {
	out, _ := compressed(TopK{Frac: 0.001}, []float64{1, 2})
	nonzero := 0
	for _, v := range out {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("kept %d, want 1", nonzero)
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	v := []float64{1, 1, 1, 1}
	a, _ := compressed(TopK{Frac: 0.5}, v)
	b, _ := compressed(TopK{Frac: 0.5}, v)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
	// Lowest indices win ties.
	if a[0] == 0 || a[1] == 0 || a[2] != 0 || a[3] != 0 {
		t.Fatalf("tie order wrong: %v", a)
	}
}

// TestByName: a compressor's Name is a spec ByName accepts and builds the
// same compressor from, so a banner or a log can be pasted back as -compress.
func TestByName(t *testing.T) {
	for _, spec := range []string{"", "none", "qsgd7", "qsgd2", "topk1", "topk5", "topk0.3", "topk0.007", "topk0.00001", "topk100"} {
		c, err := ByName(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		again, err := ByName(c.Name())
		if err != nil {
			t.Fatalf("%q: Name %q is rejected: %v", spec, c.Name(), err)
		}
		if again != c {
			t.Fatalf("%q → %#v named %q → %#v", spec, c, c.Name(), again)
		}
	}
	if c, _ := ByName("topk1"); c.Name() != "topk1" {
		t.Fatalf("topk1 is named %q", c.Name())
	}
	for _, bad := range []string{"qsgd0", "qsgdx", "qsgd7x", "topk0", "topk200", "topk5x", "topkNaN", "zip",
		"qsgd+7", "qsgd07", "topk+1", "topk01", "topk1e0", "topk0x1p0", "topk0.50", "topk1.", "topk.5"} {
		if _, err := ByName(bad); err == nil {
			t.Fatalf("%q should error", bad)
		}
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { compressed(QSGD{Levels: 0}, []float64{1}) },
		func() { compressed(TopK{Frac: 0}, []float64{1}) },
		func() { compressed(TopK{Frac: 1.5}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: QSGD preserves signs and never exceeds the original magnitude
// range; TopK output is always a masked copy of the input.
func TestCompressorProperties(t *testing.T) {
	q := QSGD{Levels: 4}
	tk := TopK{Frac: 0.3}
	f := func(v []float64) bool {
		if len(v) == 0 {
			return true
		}
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		scale := 0.0
		for _, x := range v {
			if a := math.Abs(x); a > scale {
				scale = a
			}
		}
		qv, qb := compressed(q, v)
		for i := range v {
			if v[i] > 0 && qv[i] < 0 || v[i] < 0 && qv[i] > 0 {
				return false
			}
			if math.Abs(qv[i]) > scale+1e-9 {
				return false
			}
		}
		tv, tb := compressed(tk, v)
		for i := range v {
			if tv[i] != 0 && tv[i] != v[i] {
				return false
			}
		}
		return qb > 0 && tb > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: compression reduces bytes vs fp32 for big-enough vectors.
func TestCompressionRatio(t *testing.T) {
	v := make([]float64, 10000)
	for i := range v {
		v[i] = float64(i%17) - 8
	}
	_, full := compressed(None{}, v)
	_, qb := compressed(QSGD{Levels: 7}, v)
	_, tb := compressed(TopK{Frac: 0.01}, v)
	if qb >= full/7 {
		t.Fatalf("qsgd ratio weak: %v vs %v", qb, full)
	}
	if tb >= full/40 {
		t.Fatalf("topk ratio weak: %v vs %v", tb, full)
	}
}
