package expcfg

import (
	"runtime"
	"slices"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/fl"
	"fedca/internal/trace"
)

func tinyFleetWorkload() Workload {
	return CNN().Shrink(4, 600, 120, 8)
}

// TestVirtualFleetMaterializeDeterministic: a client's materialized identity
// (shard view, speed, weight) is a pure function of (seed, id) — the same
// across independently built fleets and unaffected by slot reuse.
func TestVirtualFleetMaterializeDeterministic(t *testing.T) {
	build := func() *FleetTestbed {
		tb, err := BuildFleet(tinyFleetWorkload(), 500, 16, trace.PaperConfig(), 11)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	a, b := build(), build()

	// Churn b's pool first: materialize and recycle unrelated clients so
	// client 42 lands in a reused slot.
	for _, id := range []int{7, 400, 13} {
		c, err := b.Fleet.Materialize(id)
		if err != nil {
			t.Fatal(err)
		}
		b.Fleet.Recycle(c)
	}

	for _, id := range []int{0, 42, 499} {
		ca, err := a.Fleet.Materialize(id)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Fleet.Materialize(id)
		if err != nil {
			t.Fatal(err)
		}
		if ca.ID != id || cb.ID != id {
			t.Fatalf("ids %d/%d != %d", ca.ID, cb.ID, id)
		}
		if ca.Weight != cb.Weight || ca.Weight != 16 {
			t.Fatalf("client %d weights %v/%v, want 16", id, ca.Weight, cb.Weight)
		}
		if ca.Speed.Static != cb.Speed.Static {
			t.Fatalf("client %d static speeds diverge: %v vs %v", id, ca.Speed.Static, cb.Speed.Static)
		}
		// The speed derivation must match what a full NewFleet build gives
		// the same client.
		want := trace.NewClientSpeed(id, trace.PaperConfig(), a.Fleet.master.Fork("speeds"))
		if ca.Speed.Static != want.Static {
			t.Fatalf("client %d static %v != fleet-build %v", id, ca.Speed.Static, want.Static)
		}
	}
	if _, err := a.Fleet.Materialize(500); err == nil {
		t.Fatal("id outside the fleet accepted")
	}
	if len(a.Fleet.live) != 3 {
		t.Fatalf("a has %d live slots, want 3", len(a.Fleet.live))
	}
}

// TestVirtualFleetSlotPoolBounded: across many rounds the fleet must build
// only O(cohort) slots, recycling the rest — the tentpole's memory claim in
// miniature.
func TestVirtualFleetSlotPoolBounded(t *testing.T) {
	w := tinyFleetWorkload()
	w.FL.AggregateFraction = 1
	w.FL.Participation = 0.02 // 10 of 500
	tb, err := BuildFleet(w, 500, 16, trace.Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	cohort := 0
	for i := 0; i < rounds; i++ {
		res := r.RunRound()
		if n := len(res.Collected) + len(res.Discarded); n != 10 {
			t.Fatalf("round %d cohort %d, want 10", i, n)
		}
		cohort = 10
		if live := len(tb.Fleet.live); live != 0 {
			t.Fatalf("round %d left %d slots live", i, live)
		}
	}
	built, recycled := tb.Fleet.SlotStats()
	if built > int64(cohort) {
		t.Fatalf("built %d slots for a %d-client cohort", built, cohort)
	}
	if recycled != int64(rounds*cohort) {
		t.Fatalf("recycled %d client-rounds, want %d", recycled, rounds*cohort)
	}
	if st := r.Stats(); st.CohortClients != rounds*cohort {
		t.Fatalf("CohortClients %d, want %d", st.CohortClients, rounds*cohort)
	}
}

// TestVirtualFleetHeapIndependentOfFleetSize: the O(cohort) memory claim.
// The same 50-client cohort over a 10 000- and a 1 000 000-client fleet must
// peak at nearly the same live heap, so nothing the fleet keeps may grow with
// its size: one float64 per client is 8 MB at a million and fails here.
//
// GOMAXPROCS and the token cap are pinned to 2, as in
// TestSteadyStateRoundAllocs: on a cut that takes the whole cohort the fold
// keeps as many update vectors as completions ran ahead of the in-order
// frontier, fewer than twice the worker count, and the delta pool keeps the
// most the run needed at once, so with the worker count left to the machine
// how the workers were scheduled could move the peak by more than the
// margin.
func TestVirtualFleetHeapIndependentOfFleetSize(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two cohorts over a million-client fleet")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(2)
	const cohort = 50
	peakHeap := func(fleet int) uint64 {
		w := tinyFleetWorkload()
		w.FL.AggregateFraction = 1
		w.FL.Participation = float64(cohort) / float64(fleet)
		tb, err := BuildFleet(w, fleet, 16, trace.PaperConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		var peak uint64
		for i := 0; i < 2; i++ {
			if res := r.RunRound(); len(res.Collected)+len(res.Discarded) != cohort {
				t.Fatalf("fleet %d round %d: cohort %d, want %d", fleet, i, len(res.Collected)+len(res.Discarded), cohort)
			}
			runtime.GC()
			runtime.GC() // the second empties the sync.Pool victim caches
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
		runtime.KeepAlive(r)
		return peak
	}
	small, large := peakHeap(10_000), peakHeap(1_000_000)
	const margin = 2 << 20
	t.Logf("peak live heap: %d B at 10k clients, %d B at 1M (margin %d B)", small, large, margin)
	if large > small+margin {
		t.Fatalf("peak heap grows with the fleet: %d B at 1M clients vs %d B at 10k (margin %d B)", large, small, margin)
	}
}

// TestVirtualFleetRunDeterministic: two identically seeded virtual-fleet
// runs produce bit-identical round records, virtual times and global model
// digests included — selection, materialization, the fold and slot
// recycling are all reproducible.
func TestVirtualFleetRunDeterministic(t *testing.T) {
	run := func() []fl.RoundRecord {
		w := tinyFleetWorkload()
		w.FL.AggregateFraction = 1
		w.FL.Participation = 0.05
		tb, err := BuildFleet(w, 200, 16, trace.PaperConfig(), 23)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]fl.RoundRecord, 3)
		for i := range recs {
			recs[i] = r.RunRound().RoundRecord
		}
		return recs
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("round records differ between identical runs:\n%+v\n%+v", a, b)
	}
}

// TestBuildFleetRejectsImpossibleSpecs: bad fleet shapes are errors (the
// user-facing -fleet path), never panics.
func TestBuildFleetRejectsImpossibleSpecs(t *testing.T) {
	if _, err := BuildFleet(tinyFleetWorkload(), 0, 16, trace.Config{}, 1); err == nil {
		t.Fatal("zero-client fleet accepted")
	}
	if _, err := BuildFleet(tinyFleetWorkload(), -5, 16, trace.Config{}, 1); err == nil {
		t.Fatal("negative fleet accepted")
	}
	w := tinyFleetWorkload()
	w.Alpha = -1
	if _, err := BuildFleet(w, 10, 16, trace.Config{}, 1); err == nil {
		t.Fatal("negative alpha accepted")
	}
	// perClient below the workload's batch-size floor is impossible.
	if _, err := BuildFleet(tinyFleetWorkload(), 10, 3, trace.Config{}, 1); err == nil {
		t.Fatal("shard smaller than a batch accepted")
	}
}

// TestFleetParticipationRequiresSampler: Participation in (0,1) needs a
// Selector. FedAvg over a static fleet has none and must be rejected at
// construction; Oort picks the cohort Participation asks for on either fleet
// shape, never more.
func TestFleetParticipationRequiresSampler(t *testing.T) {
	for _, tc := range []struct {
		name          string
		scheme        string
		fleet         int // 0: a static 8-client testbed
		participation float64
		want          int // clients a round; 0: a construction error
	}{
		{"fedavg-static", "fedavg", 0, 0.5, 0},
		{"oort-virtual", "oort", 2000, 0.01, 20},
		{"oort-static", "oort", 0, 0.25, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tinyFleetWorkload()
			w.FL.Participation = tc.participation
			sch, err := SchemeByName(tc.scheme, &w.FL, core.Options{}, 3)
			if err != nil {
				t.Fatal(err)
			}
			var r *fl.Runner
			if tc.fleet > 0 {
				var tb *FleetTestbed
				if tb, err = BuildFleet(w, tc.fleet, 16, trace.Config{}, 3); err != nil {
					t.Fatal(err)
				}
				r, err = tb.NewRunner(sch)
			} else {
				r, err = Build(w, 8, trace.Config{}, 3).NewRunner(sch)
			}
			if tc.want == 0 {
				if err == nil {
					t.Fatal("participation without a selector accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				res := r.RunRound()
				if n := len(res.Collected) + len(res.Discarded); n != tc.want {
					t.Fatalf("round %d ran %d clients, want %d", i, n, tc.want)
				}
			}
		})
	}
}
