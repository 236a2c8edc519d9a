package baseline_test

import (
	"fmt"
	"math"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

func TestOortColdStartExploresEveryone(t *testing.T) {
	o := baseline.NewOort(10, rng.New(1))
	ids := o.Select(0, fl.NewHistory(), 8, 4, nil)
	if len(ids) != 4 {
		t.Fatalf("selected %d, want 4", len(ids))
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 8 || seen[id] {
			t.Fatalf("bad selection %v", ids)
		}
		seen[id] = true
	}
}

// TestOortFullFraction: a cohort of the whole fleet is everyone, appended
// after what dst already holds.
func TestOortFullFraction(t *testing.T) {
	o := baseline.NewOort(10, rng.New(2))
	ids := o.Select(3, fl.NewHistory(), 5, 5, []int{99})
	if fmt.Sprint(ids) != "[99 0 1 2 3 4]" {
		t.Fatalf("selected %v", ids)
	}
}

func TestOortPrefersHighLoss(t *testing.T) {
	o := baseline.NewOort(10, rng.New(3))
	o.Epsilon = 0 // pure exploitation
	h := fl.NewHistory()
	// 8 clients, equal speeds, different losses; client 6 has highest loss.
	var ups []fl.Update
	for id := 0; id < 8; id++ {
		loss := 0.1 * float64(id%4)
		if id == 6 {
			loss = 9
		}
		u := fl.Update{ClientID: id, Iterations: 10, TrainTime: 10, TrainLoss: loss}
		h.Observe(u)
		ups = append(ups, u)
	}
	// Feed losses through the aggregation hook (zero-length deltas).
	flat := []float64{}
	for i := range ups {
		ups[i].Delta = []float64{}
		ups[i].Weight = 1
	}
	o.Aggregate(0, flat, ups, nil)
	ids := o.Select(1, h, 8, 2, nil)
	if len(ids) != 2 {
		t.Fatalf("selected %v", ids)
	}
	found := false
	for _, id := range ids {
		if id == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("highest-loss client not selected: %v", ids)
	}
}

func TestOortPenalizesStragglers(t *testing.T) {
	o := baseline.NewOort(10, rng.New(4))
	o.Epsilon = 0
	h := fl.NewHistory()
	var ups []fl.Update
	for id := 0; id < 8; id++ {
		tTime := 10.0
		if id == 3 {
			tTime = 1000 // extreme straggler with the same loss
		}
		u := fl.Update{ClientID: id, Iterations: 10, TrainTime: tTime, TrainLoss: 1, Weight: 1, Delta: []float64{}}
		h.Observe(u)
		ups = append(ups, u)
	}
	o.Aggregate(0, nil, ups, nil)
	ids := o.Select(1, h, 8, 2, nil)
	for _, id := range ids {
		if id == 3 {
			t.Fatalf("straggler selected despite penalty: %v", ids)
		}
	}
}

func TestOortEndToEnd(t *testing.T) {
	w := tinyWorkload()
	w.FL.Participation = 0.5
	tb := expcfg.Build(w, 8, trace.Config{HeterogeneitySigma: 0.8}, 5)
	o := baseline.NewOort(w.FL.LocalIters, rng.New(6))
	r, err := tb.NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res := r.RunRound()
		total := len(res.Collected) + len(res.Discarded)
		if total != 4 {
			t.Fatalf("round %d ran %d clients, want 4 (50%% of 8)", i, total)
		}
	}
}

func TestSAFACachesStragglers(t *testing.T) {
	s := baseline.NewSAFA(0.5)
	flat := []float64{0, 0}
	collected := []fl.Update{{ClientID: 0, Weight: 1, Delta: []float64{1, 1}}}
	discarded := []fl.Update{{ClientID: 1, Weight: 1, Delta: []float64{3, 3}}}
	out := s.Aggregate(0, flat, collected, discarded)
	// Round 0: only the fresh update counts: (1,1).
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("round 0 aggregate = %v", out)
	}
	if s.CachedStale() != 1 {
		t.Fatalf("cached = %d", s.CachedStale())
	}
	// Round 1: fresh (2,2) with weight 1 plus stale (3,3) discounted 0.5.
	out = s.Aggregate(1, out, []fl.Update{{ClientID: 0, Weight: 1, Delta: []float64{2, 2}}}, nil)
	// total weight 1.5; delta = (2·1 + 3·0.5)/1.5 = 7/3 ≈ 2.333 added to (1,1).
	want := 1 + (2*1+3*0.5)/1.5
	if math.Abs(out[0]-want) > 1e-12 {
		t.Fatalf("round 1 aggregate = %v, want %v", out[0], want)
	}
	if s.CachedStale() != 0 {
		t.Fatal("cache must clear when no new stragglers arrive")
	}
}

func TestSAFAZeroDiscountIsFedAvg(t *testing.T) {
	s := baseline.NewSAFA(0)
	out := s.Aggregate(0, []float64{0}, []fl.Update{{Weight: 2, Delta: []float64{4}}}, []fl.Update{{Weight: 1, Delta: []float64{100}}})
	if out[0] != 4 {
		t.Fatalf("aggregate = %v", out)
	}
	if s.CachedStale() != 0 {
		t.Fatal("λ=0 must not cache")
	}
}

func TestSAFADroppedNeverCached(t *testing.T) {
	s := baseline.NewSAFA(1)
	s.Aggregate(0, []float64{0}, []fl.Update{{Weight: 1, Delta: []float64{1}}},
		[]fl.Update{{Weight: 1, Dropped: true}, {Weight: 1, Delta: nil}})
	if s.CachedStale() != 0 {
		t.Fatal("dropped/deltaless updates must not be cached")
	}
}

func TestSAFAEndToEnd(t *testing.T) {
	w := tinyWorkload()
	w.FL.AggregateFraction = 0.5
	w.FL.RetainUpdateDeltas = false // aggregator must still see deltas
	tb := expcfg.Build(w, 6, trace.Config{HeterogeneitySigma: 1.2}, 7)
	s := baseline.NewSAFA(0.5)
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound()
	if s.CachedStale() == 0 {
		t.Fatal("50% cutoff with 6 clients must produce stragglers to cache")
	}
	before := r.GlobalFlat()
	r.RunRound()
	after := r.GlobalFlat()
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("stale aggregation did not move the model")
	}
}

// TestSAFANeverFoldsRejectedUpdates: an update whose verdict failed —
// quarantined, or late and corrupted — reaches SAFA without its delta, so the
// stale cache never carries a corrupted update into the next round's
// aggregation and the global model stays finite.
func TestSAFANeverFoldsRejectedUpdates(t *testing.T) {
	w := tinyWorkload()
	w.FL.AggregateFraction = 0.5
	eng, err := chaos.NewEngine(chaos.Config{CorruptProb: 0.4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	w.FL.Chaos = eng
	tb := expcfg.Build(w, 6, trace.Config{HeterogeneitySigma: 1.2}, 7)
	r, err := tb.NewRunner(baseline.NewSAFA(0.5))
	if err != nil {
		t.Fatal(err)
	}
	quarantined, skipped := 0, 0
	for round := 0; round < 6; round++ {
		res := r.RunRound()
		quarantined += res.Quarantined
		if res.Skipped {
			skipped++
		}
		for i, v := range r.GlobalFlat() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("round %d: global parameter %d is %v", round, i, v)
			}
		}
	}
	if quarantined == 0 || skipped == 6 {
		t.Fatalf("quarantined %d updates and skipped %d of 6 rounds: the run does not exercise a rejected update", quarantined, skipped)
	}
}

func TestSAFABadDiscountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	baseline.NewSAFA(1.5)
}
