package trace

import (
	"math"
	"testing"

	"fedca/internal/rng"
)

// speedModel is client 0's speed model under cfg with its static factor
// set to static.
func speedModel(static float64, cfg Config, r *rng.RNG) *SpeedModel {
	m := NewClientSpeed(0, cfg, r)
	m.Static = static
	return m
}

func TestStaticOnly(t *testing.T) {
	m := speedModel(2.5, Config{}, rng.New(1))
	if d := m.IterDurationWith(1, 0, 1); d != 2.5 {
		t.Fatalf("static-only iter duration = %v, want 2.5", d)
	}
	if d := m.IterDurationWith(1, 1e6, 1); d != 2.5 {
		t.Fatalf("static-only must be time-invariant, got %v", d)
	}
}

func TestDynamicTogglesModes(t *testing.T) {
	cfg := PaperConfig()
	cfg.HeterogeneitySigma = 0
	m := speedModel(1, cfg, rng.New(2))
	// Sample the factor over a long horizon: both modes must appear.
	sawFast, sawSlow := false, false
	for ts := 0.0; ts < 5000; ts += 3 {
		f := m.DynamicFactorAt(ts)
		if f == 1 {
			sawFast = true
		} else if f > 1 && f <= 5 {
			sawSlow = true
		} else {
			t.Fatalf("factor %v outside [1,5]", f)
		}
	}
	if !sawFast || !sawSlow {
		t.Fatalf("modes not both observed: fast=%v slow=%v", sawFast, sawSlow)
	}
}

func TestDynamicFactorDeterministic(t *testing.T) {
	cfg := PaperConfig()
	a := speedModel(1, cfg, rng.New(3))
	b := speedModel(1, cfg, rng.New(3))
	// Query in different orders; answers at equal times must agree.
	times := []float64{100, 5, 700, 5, 350}
	for _, ts := range times {
		_ = a.DynamicFactorAt(ts)
	}
	for _, ts := range []float64{5, 100, 350, 700} {
		if a.DynamicFactorAt(ts) != b.DynamicFactorAt(ts) {
			t.Fatalf("factor at %v differs between query orders", ts)
		}
	}
}

func TestSlowFractionMatchesGammaMeans(t *testing.T) {
	// E[fast] = 80, E[slow] = 12 → slow fraction ≈ 12/92 ≈ 0.13.
	cfg := PaperConfig()
	m := speedModel(1, cfg, rng.New(4))
	slow := 0
	const samples = 20000
	for i := 0; i < samples; i++ {
		if m.DynamicFactorAt(float64(i)) > 1 {
			slow++
		}
	}
	frac := float64(slow) / samples
	want := 12.0 / 92.0
	if math.Abs(frac-want) > 0.04 {
		t.Fatalf("slow fraction = %v, want ≈%v", frac, want)
	}
}

func TestFleetHeterogeneity(t *testing.T) {
	fleet := NewFleet(64, PaperConfig(), rng.New(6))
	if len(fleet) != 64 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	minS, maxS := math.Inf(1), 0.0
	for _, m := range fleet {
		if m.Static < minS {
			minS = m.Static
		}
		if m.Static > maxS {
			maxS = m.Static
		}
	}
	if maxS/minS < 2 {
		t.Fatalf("fleet spread %v–%v too homogeneous", minS, maxS)
	}
	if minS < 0.5 || maxS > 8 {
		t.Fatalf("static factors outside clamp: %v–%v", minS, maxS)
	}
}

func TestFleetDeterministic(t *testing.T) {
	a := NewFleet(8, PaperConfig(), rng.New(7))
	b := NewFleet(8, PaperConfig(), rng.New(7))
	for i := range a {
		if a[i].Static != b[i].Static {
			t.Fatalf("fleet static differs at %d", i)
		}
		if a[i].DynamicFactorAt(123) != b[i].DynamicFactorAt(123) {
			t.Fatalf("fleet dynamic differs at %d", i)
		}
	}
}

func TestFleetClientsIndependent(t *testing.T) {
	fleet := NewFleet(4, PaperConfig(), rng.New(8))
	// Different clients should (almost surely) have different statics.
	same := 0
	for i := 1; i < 4; i++ {
		if fleet[i].Static == fleet[0].Static {
			same++
		}
	}
	if same == 3 {
		t.Fatal("all clients share the same static factor")
	}
}

func BenchmarkDynamicFactorAt(b *testing.B) {
	m := speedModel(1, PaperConfig(), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DynamicFactorAt(float64(i % 100000))
	}
}

// TestIterDurationWith: the extra slowdown stacks multiplicatively on the
// trace's own factors, and extra = 1 is base · Static · DynamicFactorAt(t)
// exactly.
func TestIterDurationWith(t *testing.T) {
	m := speedModel(2, PaperConfig(), rng.New(9))
	for _, tm := range []float64{0, 3.7, 55, 200} {
		nominal := 0.1 * m.Static * m.DynamicFactorAt(tm)
		if m.IterDurationWith(0.1, tm, 1) != nominal {
			t.Fatalf("extra=1 must be bit-identical to base·Static·DynamicFactorAt at t=%v", tm)
		}
		if got, want := m.IterDurationWith(0.1, tm, 3), nominal*3; got != want {
			t.Fatalf("extra=3 at t=%v: got %v, want %v", tm, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative extra factor must panic")
		}
	}()
	m.IterDurationWith(0.1, 0, -1)
}
