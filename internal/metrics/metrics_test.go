package metrics

import (
	"math"
	"testing"

	"fedca/internal/fl"
)

func TestCDFBasic(t *testing.T) {
	cdf := CDF([]int{3, 1, 3, 2})
	want := []CDFPoint{{1, 0.25}, {2, 0.5}, {3, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("cdf = %v", cdf)
	}
	for i, w := range want {
		if cdf[i].X != w.X || math.Abs(cdf[i].P-w.P) > 1e-12 {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], w)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	if CDF(nil) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	cdf := CDF([]int{5, 2, 9, 2, 7, 1, 1, 1})
	prev := 0.0
	for _, p := range cdf {
		if p.P <= prev {
			t.Fatalf("CDF not strictly increasing at %v", p)
		}
		prev = p.P
	}
	if prev != 1 {
		t.Fatalf("CDF must end at 1, got %v", prev)
	}
}

func TestQuantile(t *testing.T) {
	cdf := CDF([]int{1, 2, 3, 4})
	if q := Quantile(cdf, 0.5); q != 2 {
		t.Fatalf("median = %v, want 2", q)
	}
	if q := Quantile(cdf, 1.0); q != 4 {
		t.Fatalf("max = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func rr(round int, start, end, acc float64) fl.RoundRecord {
	return fl.RoundRecord{Index: round, Start: start, End: end, Accuracy: acc}
}

func TestConvergenceReached(t *testing.T) {
	results := []fl.RoundRecord{
		rr(0, 0, 10, 0.3),
		rr(1, 10, 20, 0.5),
		rr(2, 20, 32, 0.62),
		rr(3, 32, 40, 0.58),
	}
	c := ConvergenceOf(results, 0.6)
	if !c.Reached || c.Rounds != 3 {
		t.Fatalf("convergence = %+v", c)
	}
	if c.TotalTime != 32 {
		t.Fatalf("total time = %v", c.TotalTime)
	}
	if math.Abs(c.PerRoundTime-32.0/3) > 1e-12 {
		t.Fatalf("per-round = %v", c.PerRoundTime)
	}
	if c.BestAcc != 0.62 || c.FinalAcc != 0.58 {
		t.Fatalf("acc fields: %+v", c)
	}
}

func TestConvergenceNotReached(t *testing.T) {
	results := []fl.RoundRecord{rr(0, 0, 10, 0.3), rr(1, 10, 20, 0.4)}
	c := ConvergenceOf(results, 0.9)
	if c.Reached {
		t.Fatal("should not reach")
	}
	if c.Rounds != 2 || c.TotalTime != 20 {
		t.Fatalf("%+v", c)
	}
}

func TestConvergenceEmpty(t *testing.T) {
	c := ConvergenceOf(nil, 0.5)
	if c.Reached || c.Rounds != 0 {
		t.Fatalf("%+v", c)
	}
}

func TestConvergenceNonZeroOrigin(t *testing.T) {
	// Times must be measured from the first round's start.
	results := []fl.RoundRecord{rr(5, 100, 110, 0.7)}
	c := ConvergenceOf(results, 0.6)
	if c.TotalTime != 10 {
		t.Fatalf("total time = %v, want 10", c.TotalTime)
	}
}

func TestAccuracyCurve(t *testing.T) {
	results := []fl.RoundRecord{rr(0, 50, 60, 0.3), rr(1, 60, 75, 0.5)}
	ts, as := AccuracyCurve(results)
	if ts[0] != 10 || ts[1] != 25 || as[0] != 0.3 || as[1] != 0.5 {
		t.Fatalf("curve = %v %v", ts, as)
	}
	if ts, _ := AccuracyCurve(nil); ts != nil {
		t.Fatal("empty curve must be nil")
	}
}

func TestMaxAbsDiffAndRMSE(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2.5, 2}
	if d := MaxAbsDiff(a, b); d != 1 {
		t.Fatalf("max diff = %v", d)
	}
	want := math.Sqrt((0 + 0.25 + 1) / 3)
	if d := RMSE(a, b); math.Abs(d-want) > 1e-12 {
		t.Fatalf("rmse = %v", d)
	}
	if !math.IsNaN(MaxAbsDiff(nil, b)) || !math.IsNaN(RMSE(a, nil)) {
		t.Fatal("empty inputs must give NaN")
	}
}

func TestMeanRoundDuration(t *testing.T) {
	results := []fl.RoundRecord{rr(0, 0, 10, 0), rr(1, 10, 14, 0), rr(2, 14, 20, 0)}
	if m := MeanRoundDuration(results, 0); math.Abs(m-20.0/3) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	if m := MeanRoundDuration(results, 1); m != 5 {
		t.Fatalf("skip-1 mean = %v", m)
	}
	if !math.IsNaN(MeanRoundDuration(results, 3)) {
		t.Fatal("skip beyond length must give NaN")
	}
}
