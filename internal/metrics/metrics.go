// Package metrics computes the evaluation-side statistics of the
// reproduction: empirical CDFs (Fig. 8), time-to-accuracy summaries
// (Fig. 7 / Table 1) and curve-similarity measures (Figs. 4–5).
package metrics

import (
	"math"
	"sort"

	"fedca/internal/fl"
)

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64 // fraction of samples ≤ X
}

// CDF builds the empirical CDF of integer samples (e.g. trigger iterations).
// Returns nil for no samples.
func CDF(samples []int) []CDFPoint {
	if len(samples) == 0 {
		return nil
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	var out []CDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		out = append(out, CDFPoint{X: float64(s[i]), P: float64(j) / n})
		i = j
	}
	return out
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the CDF's sample values by
// step lookup. Empty CDF returns NaN.
func Quantile(cdf []CDFPoint, q float64) float64 {
	if len(cdf) == 0 {
		return math.NaN()
	}
	for _, p := range cdf {
		if p.P >= q {
			return p.X
		}
	}
	return cdf[len(cdf)-1].X
}

// Convergence summarizes a training run against an accuracy target
// (the Table 1 row format: per-round time, #rounds, total time).
type Convergence struct {
	Reached      bool
	Rounds       int     // rounds used to reach the target (all rounds if not reached)
	TotalTime    float64 // virtual seconds to the end of the reaching round
	PerRoundTime float64 // mean round duration over the counted rounds
	FinalAcc     float64
	BestAcc      float64
}

// ConvergenceOf scans round results for the first round whose accuracy
// reaches target. Time is measured from the first round's start.
func ConvergenceOf(results []fl.RoundRecord, target float64) Convergence {
	var c Convergence
	if len(results) == 0 {
		return c
	}
	origin := results[0].Start
	for i, r := range results {
		if r.Accuracy > c.BestAcc {
			c.BestAcc = r.Accuracy
		}
		c.FinalAcc = r.Accuracy
		if !c.Reached && r.Accuracy >= target {
			c.Reached = true
			c.Rounds = i + 1
			c.TotalTime = r.End - origin
		}
	}
	if !c.Reached {
		c.Rounds = len(results)
		c.TotalTime = results[len(results)-1].End - origin
	}
	c.PerRoundTime = c.TotalTime / float64(c.Rounds)
	return c
}

// AccuracyCurve extracts the (time, accuracy) series of a run, time measured
// from the first round's start (the Fig. 7 axes).
func AccuracyCurve(results []fl.RoundRecord) (times, accs []float64) {
	if len(results) == 0 {
		return nil, nil
	}
	origin := results[0].Start
	for _, r := range results {
		times = append(times, r.End-origin)
		accs = append(accs, r.Accuracy)
	}
	return times, accs
}

// MaxAbsDiff returns max_i |a_i − b_i| over the common prefix; NaN if either
// is empty.
func MaxAbsDiff(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return math.NaN()
	}
	m := 0.0
	for i := 0; i < n; i++ {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// RMSE returns the root-mean-square difference over the common prefix; NaN if
// either is empty.
func RMSE(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

// MeanRoundDuration averages round durations, optionally skipping the first
// skip rounds (e.g. anchor/bootstrap rounds).
func MeanRoundDuration(results []fl.RoundRecord, skip int) float64 {
	if skip >= len(results) {
		return math.NaN()
	}
	total := 0.0
	for _, r := range results[skip:] {
		total += r.Duration()
	}
	return total / float64(len(results)-skip)
}
