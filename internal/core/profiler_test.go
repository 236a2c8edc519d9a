package core

import (
	"math"
	"testing"

	"fedca/internal/nn"
	"fedca/internal/rng"
)

func ranges3() []nn.ParamRange {
	return []nn.ParamRange{
		{Name: "conv1.weight", Start: 0, End: 400},
		{Name: "conv1.bias", Start: 400, End: 410},
		{Name: "fc.weight", Start: 410, End: 1010},
	}
}

func TestSamplingRule(t *testing.T) {
	p := NewProfiler(100, 0.5, rng.New(1))
	p.BeginAnchor(0)
	delta := make([]float64, 1010)
	p.Record(ranges3(), delta)
	// min(50%·400, 100) = 100; min(50%·10, 100) = 5; min(50%·600, 100) = 100.
	want := []int{100, 5, 100}
	for l, w := range want {
		if got := len(p.sampleIdx[l]); got != w {
			t.Fatalf("layer %d sample count = %d, want %d", l, got, w)
		}
	}
	if p.TotalSamples() != 205 {
		t.Fatalf("total samples = %d, want 205", p.TotalSamples())
	}
	if p.MemoryBytes(125) != 205*125*8 {
		t.Fatalf("memory bytes = %d", p.MemoryBytes(125))
	}
}

func TestSampleIndicesWithinLayer(t *testing.T) {
	p := NewProfiler(100, 0.5, rng.New(2))
	p.BeginAnchor(0)
	p.Record(ranges3(), make([]float64, 1010))
	for l, rg := range ranges3() {
		seen := make(map[int]bool)
		for _, j := range p.sampleIdx[l] {
			if j < rg.Start || j >= rg.End {
				t.Fatalf("layer %d sampled index %d outside [%d,%d)", l, j, rg.Start, rg.End)
			}
			if seen[j] {
				t.Fatalf("layer %d sampled index %d twice", l, j)
			}
			seen[j] = true
		}
	}
}

func TestAnchorCurves(t *testing.T) {
	p := NewProfiler(100, 0.5, rng.New(3))
	p.BeginAnchor(7)
	rgs := ranges3()
	const k = 12
	r := rng.New(4)
	// Build a realistic cumulative trajectory: decaying step sizes.
	cum := make([]float64, 1010)
	for it := 1; it <= k; it++ {
		scale := 1.0 / float64(it)
		for j := range cum {
			cum[j] += scale * r.Normal(0, 1)
		}
		p.Record(rgs, cum)
	}
	c := p.FinishAnchor()
	if c.Round != 7 || len(c.Model) != k {
		t.Fatalf("curves meta wrong: %+v", c)
	}
	if len(c.Layer) != 3 {
		t.Fatalf("layer curves = %d", len(c.Layer))
	}
	if math.Abs(c.Model[k-1]-1) > 1e-12 {
		t.Fatalf("model curve must end at 1, got %v", c.Model[k-1])
	}
	for l := range c.Layer {
		if math.Abs(c.Layer[l][k-1]-1) > 1e-12 {
			t.Fatalf("layer %d curve must end at 1", l)
		}
	}
	// Decaying steps → early progress dominates: P at K/2 should be high.
	if c.Model[k/2] < 0.5 {
		t.Fatalf("diminishing-return trajectory should reach P > 0.5 by mid-round, got %v", c.Model[k/2])
	}
	if p.Curves() != c {
		t.Fatal("Curves() must return the last anchor result")
	}
	if p.Recording() {
		t.Fatal("recording must be disarmed after FinishAnchor")
	}
}

func TestRecordOutsideAnchorPanics(t *testing.T) {
	p := NewProfiler(0, 0, rng.New(5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Record(ranges3(), make([]float64, 1010))
}

func TestFinishWithoutRecordPanics(t *testing.T) {
	p := NewProfiler(0, 0, rng.New(6))
	p.BeginAnchor(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.FinishAnchor()
}

func TestLayoutChangePanics(t *testing.T) {
	p := NewProfiler(0, 0, rng.New(7))
	p.BeginAnchor(0)
	p.Record(ranges3(), make([]float64, 1010))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Record(ranges3()[:2], make([]float64, 1010))
}

func TestSampledCurveApproximatesFullCurve(t *testing.T) {
	// The heart of Fig. 5: within a layer whose parameters evolve at a
	// similar pace, the sampled-progress curve tracks the full-layer curve.
	r := rng.New(8)
	const n, k = 2000, 30
	rgs := []nn.ParamRange{{Name: "layer", Start: 0, End: n}}
	p := NewProfiler(100, 0.5, rng.New(9))
	p.BeginAnchor(0)

	cum := make([]float64, n)
	// Common per-iteration pace with per-parameter jitter.
	dirs := make([]float64, n)
	for j := range dirs {
		dirs[j] = r.Normal(0, 1)
	}
	var fullSnaps [][]float64
	for it := 1; it <= k; it++ {
		scale := 1.0 / float64(it*it) // strongly diminishing
		for j := range cum {
			cum[j] += scale * (dirs[j] + 0.2*r.Normal(0, 1))
		}
		p.Record(rgs, cum)
		fullSnaps = append(fullSnaps, append([]float64(nil), cum...))
	}
	sampled := p.FinishAnchor().Layer[0]
	full := ProgressCurve(fullSnaps)
	for i := range full {
		if math.Abs(sampled[i]-full[i]) > 0.1 {
			t.Fatalf("τ=%d: sampled %v vs full %v deviates > 0.1", i+1, sampled[i], full[i])
		}
	}
}

func TestProfilerDeterministicSampling(t *testing.T) {
	a := NewProfiler(100, 0.5, rng.New(10))
	b := NewProfiler(100, 0.5, rng.New(10))
	a.BeginAnchor(0)
	b.BeginAnchor(0)
	d := make([]float64, 1010)
	a.Record(ranges3(), d)
	b.Record(ranges3(), d)
	for l := range a.sampleIdx {
		for i := range a.sampleIdx[l] {
			if a.sampleIdx[l][i] != b.sampleIdx[l][i] {
				t.Fatal("sampling must be deterministic per seed")
			}
		}
	}
}

// TestAnchorRowsComeBackFromThePool: a scheme's profilers share one row
// pool, so an anchor recording after the first takes the rows the last one
// gave back and allocates nothing, and the curves it produces are the same
// as from fresh rows.
func TestAnchorRowsComeBackFromThePool(t *testing.T) {
	s := NewScheme(DefaultOptions(4), rng.New(9))
	delta := make([]float64, 1010)
	record := func(p *Profiler, round int) *Curves {
		p.BeginAnchor(round)
		for it := 1; it <= 4; it++ {
			for j := range delta {
				delta[j] = float64(it*j%7) - 3
			}
			p.Record(ranges3(), delta)
		}
		return p.FinishAnchor()
	}
	first := record(s.Profiler(0), 0)
	p := s.Profiler(1)
	if n := testing.AllocsPerRun(5, func() {
		p.BeginAnchor(10)
		for it := 0; it < 4; it++ {
			p.Record(ranges3(), delta)
		}
		p.AbortAnchor()
	}); n != 0 {
		t.Fatalf("an anchor recording on pooled rows allocated %v times", n)
	}
	again := record(s.Profiler(0), 10)
	for l := range first.Layer {
		for i := range first.Layer[l] {
			if first.Layer[l][i] != again.Layer[l][i] {
				t.Fatalf("layer %d curve differs at %d on pooled rows", l, i)
			}
		}
	}
}
