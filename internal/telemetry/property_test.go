package telemetry

import (
	"math"
	"testing"
	"testing/quick"
)

// histogramFrom builds a histogram over fixed edges and feeds it the given
// observations, mapping raw uint16 fuzz input into a bounded float range so
// every bucket is reachable.
func histogramFrom(obs []uint16) (*Histogram, []float64) {
	h := newHistogram([]float64{0.5, 1, 2, 4, 8, 16})
	vals := make([]float64, len(obs))
	for i, o := range obs {
		v := float64(o) / 1024 // [0, 64): covers all buckets plus overflow
		vals[i] = v
		h.Observe(v)
	}
	return h, vals
}

// Property: cumulative bucket counts are monotone non-decreasing and the
// final cumulative count equals Count().
func TestHistogramCumulativeMonotone(t *testing.T) {
	f := func(obs []uint16) bool {
		h, _ := histogramFrom(obs)
		counts := h.bucketCounts()
		var cum, prev uint64
		for _, c := range counts {
			cum += c
			if cum < prev {
				return false
			}
			prev = cum
		}
		return cum == h.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum() equals the exact sum of observations and Count() their
// number.
func TestHistogramSumCountConsistency(t *testing.T) {
	f := func(obs []uint16) bool {
		h, vals := histogramFrom(obs)
		var want float64
		for _, v := range vals {
			want += v
		}
		if h.Count() != uint64(len(vals)) {
			return false
		}
		// Allow float accumulation noise (atomic adds happen one at a time in
		// a different order than the reference loop).
		return math.Abs(h.Sum()-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
