package fedca_test

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"fedca"
	"fedca/internal/cputok"
)

// roundBytes runs n rounds of f and returns the heap bytes each allocated.
// The counts are process-wide, so the train stage's worker goroutines and
// every fan-out a round starts are included.
func roundBytes(f *fedca.Federation, n int) []float64 {
	var before, after runtime.MemStats
	bytes := make([]float64, n)
	for i := range bytes {
		runtime.ReadMemStats(&before)
		f.RunRound()
		runtime.ReadMemStats(&after)
		bytes[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	return bytes
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	return s[len(s)/2]
}

// TestSteadyStateRoundAllocs is the per-round form of the zero-alloc steady
// state: a round driven through the facade, as the benchmark drives it, at
// the workloads' model shapes, allocates next to nothing once warm — its
// client rounds reuse their workers' eager snapshots, optimizer and layer
// layout, a virtual fleet's slots re-seed their loaders and speed models in
// place, anchor rounds reuse the profile rows of the last anchor, and a
// training worker's kernels do not fan out beside it (the driving goroutine
// holds a CPU token). Each bound is a tenth of what the same round allocated
// when none of that held: a non-anchor cnn round 1.63 MB, an anchor round
// after the first 0.63 MB, a round of a 100-client f32 fleet cohort 230 KB.
//
// The statistic is the median round (the least round, for anchors): the
// fold keeps as many update vectors as completions ran ahead of the
// in-order frontier, so a round in which a worker was descheduled for longer
// than ever before adds a vector to the pool for good. GOMAXPROCS and the
// token cap are pinned to 2, the benchmark's box, whatever the machine.
func TestSteadyStateRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(2)

	t.Run("cnn-fedca", func(t *testing.T) {
		o := fedca.DefaultOptions()
		o.Clients, o.LocalIters, o.BatchSize = 4, 20, 32
		o.TrainSamples, o.TestSamples = 1024, 256
		o.FedCA.K = o.LocalIters
		o.FedCA.ProfilePeriod = 3 // anchors at rounds 0, 3, 6, 9
		f, err := fedca.New(o)
		if err != nil {
			t.Fatal(err)
		}
		f.Run(2)
		st0, _ := f.FedCAStats()
		bytes := roundBytes(f, 8) // rounds 2-9
		st, _ := f.FedCAStats()
		if st.EagerSentTotal == st0.EagerSentTotal || st.AnchorRounds == st0.AnchorRounds {
			t.Fatalf("measured rounds sent %d eager layers in %d anchor client-rounds; the guard needs both",
				st.EagerSentTotal-st0.EagerSentTotal, st.AnchorRounds-st0.AnchorRounds)
		}
		t.Logf("bytes per round %v", bytes)
		var anchors, rest []float64
		for i, b := range bytes {
			if (2+i)%3 == 0 {
				anchors = append(anchors, b)
			} else {
				rest = append(rest, b)
			}
		}
		if m := median(rest); m > 163_000 {
			t.Errorf("a steady-state cnn-fedca round allocated %.0f bytes (median); want ≤ 163000", m)
		}
		// The least of the three: an anchor trains every client for all K
		// iterations, so the stage's tail, where one worker trains alone and
		// its convolutions fan out on the token the other returned, can run
		// long when the machine is loaded.
		if m := slices.Min(anchors); m > 63_000 {
			t.Errorf("an anchor round after the first allocated %.0f bytes (least of %v); want ≤ 63000", m, anchors)
		}
	})
	t.Run("fleet-cnn-f32", func(t *testing.T) {
		o := fedca.DefaultOptions()
		o.Scheme = "fedavg"
		o.Fleet, o.Participation = 200, 0.5
		o.LocalIters, o.BatchSize = 3, 10
		o.TrainSamples, o.TestSamples = 2000, 400
		o.AggregateFraction = 1
		o.DType = "f32"
		f, err := fedca.New(o)
		if err != nil {
			t.Fatal(err)
		}
		f.Run(6)
		bytes := roundBytes(f, 10)
		t.Logf("bytes per round %v", bytes)
		if m := median(bytes); m > 23_000 {
			t.Errorf("a steady-state fleet round allocated %.0f bytes (median); want ≤ 23000", m)
		}
	})
}

// TestFacadeRetainsOneSummaryPerRound: a federation keeps what Rounds,
// RunToAccuracy and Accuracy read — one Round per completed round — and not
// the rounds' results with their cohort-sized update lists. The live heap
// after a GC grows by at most one summary per round across 20 more rounds
// of a virtual fleet. The fedca input, at a K where clients stop early and
// send layers eagerly in the window, holds FedCAStats to the same bound:
// its counts by iteration are bounded by K, not by the run's length.
//
// What else grows with a run is kept out of the window: the run is serial
// (one token), so the delta pool never grows past its warm size; the fleet
// is small enough that History has seen every client before the window;
// speeds are static, since a dynamic speed model's timeline reaches to the
// current virtual time; FedCA profiles at round 0 only, since a client's
// first completed anchor adds its curves for good; and the window, rounds 40
// to 60, lies inside one capacity of the summary slice (it grows at 37 and
// 74).
func TestFacadeRetainsOneSummaryPerRound(t *testing.T) {
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(1)
	for _, tc := range []struct {
		scheme string
		k      int
	}{{"fedavg", 2}, {"fedca", 8}} {
		t.Run(tc.scheme, func(t *testing.T) {
			o := fedca.DefaultOptions()
			o.Scheme = tc.scheme
			o.Fleet, o.Participation = 40, 0.5
			o.LocalIters, o.BatchSize = tc.k, 10
			o.TrainSamples, o.TestSamples = 1000, 100
			o.AggregateFraction = 1
			o.DType = "f32"
			o.Dynamic = false
			o.FedCA.ProfilePeriod = 100
			f, err := fedca.New(o)
			if err != nil {
				t.Fatal(err)
			}
			live := func() uint64 {
				// Two collections: the first moves pooled scratch to the
				// victim caches, the second frees it.
				var ms runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			const rounds = 20
			f.Run(40)
			st0, _ := f.FedCAStats()
			before := live()
			f.Run(rounds)
			grown := int64(live()) - int64(before)
			t.Logf("live heap grew %d bytes over %d rounds", grown, rounds)
			if limit := int64(rounds * unsafe.Sizeof(fedca.Round{})); grown > limit {
				t.Fatalf("live heap grew %d bytes over %d rounds; want ≤ %d (one summary per round)", grown, rounds, limit)
			}
			if n := len(f.Rounds()); n != 60 {
				t.Fatalf("Rounds() holds %d rounds, want 60", n)
			}
			if st, ok := f.FedCAStats(); ok && (st.EarlyStops == st0.EarlyStops || st.EagerSentTotal == st0.EagerSentTotal) {
				t.Fatalf("the window saw %d early stops and %d eager sends; the fedca input needs both",
					st.EarlyStops-st0.EarlyStops, st.EagerSentTotal-st0.EagerSentTotal)
			}
		})
	}
}

// TestFacadeRoundIsCovered: the goroutine driving a facade round holds a CPU
// token while the round runs — observers run inside it and see it — and
// hands it back after; at cap 2 the round then never holds more than 2.
// Run under -race, it is also the facade round at cap 2 with the race
// detector watching.
func TestFacadeRoundIsCovered(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(2)
	f, err := fedca.New(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	held := -1
	f.OnRound(func(fedca.Round) { held = budget.Inflight() })
	budget.ResetMax()
	f.Run(2)
	if held != 1 {
		t.Fatalf("tokens held while the round's observers ran = %d, want 1", held)
	}
	if n := budget.Inflight(); n != 0 {
		t.Fatalf("tokens held after RunRound = %d, want 0", n)
	}
	if m := budget.MaxInflight(); m > 2 {
		t.Fatalf("a round at cap 2 held %d tokens at once", m)
	}
}
