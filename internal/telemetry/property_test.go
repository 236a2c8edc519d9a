package telemetry

import (
	"math"
	"math/rand"
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

// Property: every quantile estimate lies within the edges of some bucket that
// actually contains observations — concretely, within [lowest containing
// bucket's lower edge, highest finite edge].
func TestHistogramQuantileBounded(t *testing.T) {
	f := func(obs []uint16, qRaw uint16) bool {
		h, vals := histogramFrom(obs)
		q := float64(qRaw) / math.MaxUint16
		got := h.Quantile(q)
		if len(vals) == 0 {
			return math.IsNaN(got)
		}
		edges := h.Edges()
		lo := math.Min(0, edges[0])
		hi := edges[len(edges)-1]
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the quantile is bounded by the edges of the bucket holding the
// target rank (the formal statement of "interpolation never leaves its
// bucket").
func TestHistogramQuantileInsideRankBucket(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		h := newHistogram([]float64{0.5, 1, 2, 4, 8, 16})
		n := 1 + rnd.Intn(200)
		for i := 0; i < n; i++ {
			h.Observe(rnd.Float64() * 20)
		}
		q := rnd.Float64()
		got := h.Quantile(q)

		// Recompute the rank bucket independently.
		counts := h.bucketCounts()
		rank := q * float64(h.Count())
		var cum float64
		idx := -1
		for i, c := range counts {
			cum += float64(c)
			if cum >= rank && c > 0 {
				idx = i
				break
			}
		}
		if idx == -1 { // all trailing buckets empty; estimator clamps to last edge
			continue
		}
		edges := h.Edges()
		if idx == len(edges) { // overflow bucket reports the last finite edge
			if got != edges[len(edges)-1] {
				t.Fatalf("trial %d: overflow quantile = %v, want %v", trial, got, edges[len(edges)-1])
			}
			continue
		}
		lo := math.Min(0, edges[0])
		if idx > 0 {
			lo = edges[idx-1]
		}
		if got < lo || got > edges[idx] {
			t.Fatalf("trial %d: q=%v quantile %v outside rank bucket [%v, %v]", trial, q, got, lo, edges[idx])
		}
	}
}
