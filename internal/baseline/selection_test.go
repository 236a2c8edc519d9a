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
	// History remembers both.
	for id := 0; id < 8; id++ {
		loss := 0.1 * float64(id%4)
		if id == 6 {
			loss = 9
		}
		h.Observe(fl.Update{ClientID: id, Iterations: 10, TrainTime: 10, TrainLoss: loss})
	}
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
	for id := 0; id < 8; id++ {
		tTime := 10.0
		if id == 3 {
			tTime = 1000 // extreme straggler with the same loss
		}
		h.Observe(fl.Update{ClientID: id, Iterations: 10, TrainTime: tTime, TrainLoss: 1})
	}
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
	late := []fl.Update{{ClientID: 1, Weight: 2, Delta: []float64{3, 3}}}
	// Round 0: nothing is stale yet; the late update is kept, by copy.
	if got := s.Carry(0, late); len(got) != 0 {
		t.Fatalf("round 0 carried %v", got)
	}
	late[0].Delta[0] = 99
	// Round 1: last round's late update comes back at weight λ·w.
	got := s.Carry(1, nil)
	if len(got) != 1 || got[0].ClientID != 1 || got[0].Weight != 1 || got[0].Delta[0] != 3 || got[0].Delta[1] != 3 {
		t.Fatalf("round 1 carried %+v, want client 1 at weight 0.5·2 with its delta (3,3)", got)
	}
	// Round 2: no late update arrived in round 1, so nothing is carried.
	if got := s.Carry(2, nil); len(got) != 0 {
		t.Fatalf("round 2 carried %v: the cache must clear when no new stragglers arrive", got)
	}
}

func TestSAFAZeroDiscountIsFedAvg(t *testing.T) {
	s := baseline.NewSAFA(0)
	s.Carry(0, []fl.Update{{Weight: 1, Delta: []float64{100}}})
	if got := s.Carry(1, nil); len(got) != 0 {
		t.Fatalf("λ=0 carried %v", got)
	}
}

// carryWatch is SAFA with every Carry call's late updates checked first.
type carryWatch struct {
	*baseline.SAFA
	t    *testing.T
	late int
}

func (c *carryWatch) Carry(round int, late []fl.Update) []fl.Update {
	for _, u := range late {
		if u.Dropped || u.Quarantined || u.Delta == nil {
			c.t.Fatalf("round %d: Carry was handed client %d's update: dropped %v, quarantined %v, delta %v", round, u.ClientID, u.Dropped, u.Quarantined, u.Delta != nil)
		}
	}
	c.late += len(late)
	return c.SAFA.Carry(round, late)
}

// TestSAFADroppedNeverCached: the late arrivals the runner hands to Carry
// are neither dropped nor quarantined and carry their delta, under a cut
// that leaves stragglers and a dropout rate that loses clients.
func TestSAFADroppedNeverCached(t *testing.T) {
	w := tinyWorkload()
	w.FL.AggregateFraction = 0.5
	eng, err := chaos.NewEngine(chaos.Config{DropProb: 0.3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.FL.Chaos = eng
	tb := expcfg.Build(w, 6, trace.Config{HeterogeneitySigma: 1.2}, 7)
	c := &carryWatch{SAFA: baseline.NewSAFA(0.5), t: t}
	r, err := tb.NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for round := 0; round < 4; round++ {
		dropped += r.RunRound().Dropped
	}
	if dropped == 0 || c.late == 0 {
		t.Fatalf("%d dropped client-rounds and %d late updates: the run does not exercise the filter", dropped, c.late)
	}
}

func TestSAFAEndToEnd(t *testing.T) {
	w := tinyWorkload()
	w.FL.AggregateFraction = 0.5
	// The same federation under SAFA and FedAvg: round 0 has nothing stale
	// to carry, so the two agree; in round 1 SAFA folds round 0's
	// stragglers, so they part.
	runs := make([]*fl.Runner, 2)
	for i, scheme := range []fl.Scheme{baseline.NewSAFA(0.5), baseline.FedAvg{}} {
		tb := expcfg.Build(w, 6, trace.Config{HeterogeneitySigma: 1.2}, 7)
		r, err := tb.NewRunner(scheme)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	safa, fedavg := runs[0].RunRound(), runs[1].RunRound()
	if len(safa.Discarded) == 0 {
		t.Fatal("50% cutoff with 6 clients must produce stragglers to cache")
	}
	if safa.Params != fedavg.Params {
		t.Fatal("round 0 carried an update: nothing was stale yet")
	}
	if runs[0].RunRound().Params == runs[1].RunRound().Params {
		t.Fatal("round 1: SAFA's stale updates did not move the model")
	}
}

// TestSAFANeverFoldsRejectedUpdates: an update whose verdict failed —
// quarantined, or late and corrupted — never reaches SAFA's Carry, so the
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
