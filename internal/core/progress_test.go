package core

import (
	"math"
	"testing"
	"testing/quick"

	"fedca/internal/rng"
)

func TestProgressIdentical(t *testing.T) {
	v := []float64{1, -2, 3}
	if p := Progress(v, v); math.Abs(p-1) > 1e-12 {
		t.Fatalf("P(v,v) = %v, want 1", p)
	}
}

func TestProgressScaled(t *testing.T) {
	// Same direction, half magnitude: cos = 1, ratio = 0.5.
	a := []float64{2, 0}
	b := []float64{4, 0}
	if p := Progress(a, b); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P = %v, want 0.5", p)
	}
	// Symmetric in magnitude ordering.
	if p := Progress(b, a); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P = %v, want 0.5", p)
	}
}

func TestProgressOrthogonal(t *testing.T) {
	if p := Progress([]float64{1, 0}, []float64{0, 1}); math.Abs(p) > 1e-12 {
		t.Fatalf("orthogonal P = %v, want 0", p)
	}
}

func TestProgressOpposite(t *testing.T) {
	if p := Progress([]float64{1, 0}, []float64{-1, 0}); math.Abs(p+1) > 1e-12 {
		t.Fatalf("opposite P = %v, want -1", p)
	}
}

func TestProgressZeroConventions(t *testing.T) {
	z := []float64{0, 0}
	v := []float64{1, 1}
	if p := Progress(z, z); p != 1 {
		t.Fatalf("P(0,0) = %v, want 1", p)
	}
	if p := Progress(z, v); p != 0 {
		t.Fatalf("P(0,v) = %v, want 0", p)
	}
}

// Property: P ≤ 1 always (paper's claim below Eq. 1), and P is symmetric.
func TestProgressBoundedProperty(t *testing.T) {
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
		p := Progress(a, b)
		q := Progress(b, a)
		return p <= 1+1e-9 && p >= -1-1e-9 && math.Abs(p-q) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProgressCurveMonotoneForStraightPath(t *testing.T) {
	// Cumulative updates along a fixed direction: P_τ = τ/K exactly.
	k := 10
	snaps := make([][]float64, k)
	for i := range snaps {
		snaps[i] = []float64{float64(i + 1), 2 * float64(i+1)}
	}
	curve := ProgressCurve(snaps)
	for i, p := range curve {
		want := float64(i+1) / float64(k)
		if math.Abs(p-want) > 1e-12 {
			t.Fatalf("P_%d = %v, want %v", i+1, p, want)
		}
	}
}

func TestProgressCurveEndsAtOne(t *testing.T) {
	r := rng.New(1)
	k := 20
	snaps := make([][]float64, k)
	cum := make([]float64, 16)
	for i := 0; i < k; i++ {
		for j := range cum {
			cum[j] += r.Normal(0, 1)
		}
		snaps[i] = append([]float64(nil), cum...)
	}
	curve := ProgressCurve(snaps)
	if math.Abs(curve[k-1]-1) > 1e-12 {
		t.Fatalf("P_K = %v, want 1", curve[k-1])
	}
}

func TestProgressCurveEmpty(t *testing.T) {
	if c := ProgressCurve(nil); c != nil {
		t.Fatalf("expected nil curve, got %v", c)
	}
}

func TestCurvesAtClamping(t *testing.T) {
	c := &Curves{Model: []float64{0.2, 0.5, 1.0}}
	if c.At(0) != 0 {
		t.Fatal("P_0 must be 0")
	}
	if c.At(1) != 0.2 || c.At(3) != 1.0 {
		t.Fatal("At wrong")
	}
	if c.At(99) != 1.0 {
		t.Fatal("At must clamp above K")
	}
}

func TestCosineSimilarityConventions(t *testing.T) {
	if c := CosineSimilarity([]float64{0}, []float64{0}); c != 1 {
		t.Fatalf("cos(0,0) = %v", c)
	}
	if c := CosineSimilarity([]float64{0}, []float64{1}); c != 0 {
		t.Fatalf("cos(0,v) = %v", c)
	}
	if c := CosineSimilarity([]float64{1, 1}, []float64{1, 1}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("cos(v,v) = %v", c)
	}
}

func TestMarginalBenefit(t *testing.T) {
	c := &Curves{Model: []float64{0.5, 0.8, 0.9, 0.95, 1.0}}
	// τ=1: diff = 0.5-0 = 0.5; floor = (1-0.5)/4 = 0.125 → 0.5.
	if b := MarginalBenefit(c, 1, 5, false); math.Abs(b-0.5) > 1e-12 {
		t.Fatalf("b_1 = %v", b)
	}
	// τ=3: diff = 0.1; floor = (1-0.9)/2 = 0.05 → 0.1.
	if b := MarginalBenefit(c, 3, 5, false); math.Abs(b-0.1) > 1e-12 {
		t.Fatalf("b_3 = %v", b)
	}
	// τ=K: floor defined 0; diff 0.05.
	if b := MarginalBenefit(c, 5, 5, false); math.Abs(b-0.05) > 1e-12 {
		t.Fatalf("b_K = %v", b)
	}
}

func TestMarginalBenefitFloorGuardsIrregularity(t *testing.T) {
	// Locally flat (even decreasing) curve stretch: the floor keeps b positive.
	c := &Curves{Model: []float64{0.6, 0.6, 0.55, 1.0}}
	b := MarginalBenefit(c, 3, 4, false)
	want := (1 - 0.55) / 1 // floor
	if math.Abs(b-want) > 1e-12 {
		t.Fatalf("b = %v, want floor %v", b, want)
	}
	// Ablation: floor off exposes the negative diff.
	if b := MarginalBenefit(c, 3, 4, true); b >= 0 {
		t.Fatalf("floor-less b = %v, want negative", b)
	}
}

func TestMarginalCost(t *testing.T) {
	// Before deadline: β·t/T.
	if c := MarginalCost(50, 100, 0.01); math.Abs(c-0.005) > 1e-12 {
		t.Fatalf("pre-deadline cost = %v", c)
	}
	// After deadline: t/T (f jumps to 1).
	if c := MarginalCost(150, 100, 0.01); math.Abs(c-1.5) > 1e-12 {
		t.Fatalf("post-deadline cost = %v", c)
	}
	// No deadline: zero cost.
	if c := MarginalCost(50, math.Inf(1), 0.01); c != 0 {
		t.Fatalf("no-deadline cost = %v", c)
	}
	if c := MarginalCost(50, 0, 0.01); c != 0 {
		t.Fatalf("zero-deadline cost = %v", c)
	}
}

func TestCostJumpsAtDeadline(t *testing.T) {
	pre := MarginalCost(99.9, 100, 0.01)
	post := MarginalCost(100.1, 100, 0.01)
	if post < 50*pre {
		t.Fatalf("cost must spike at the deadline: %v -> %v", pre, post)
	}
}

func TestNetBenefit(t *testing.T) {
	if NetBenefit(0.5, 0.2) != 0.3 {
		t.Fatal("net benefit wrong")
	}
}
