package fl_test

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/trace"
)

// chaosEngine builds an engine with every fault class enabled, validated.
func chaosEngine(t *testing.T, seed uint64) *chaos.Engine {
	t.Helper()
	e, err := chaos.NewEngine(chaos.Config{
		DropProb:     0.25,
		SlowProb:     0.4,
		DegradeProb:  0.3,
		OutageProb:   0.25,
		XferFailProb: 0.15,
		CorruptProb:  0.2,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// dropEngine builds an engine whose only fault class is client dropout with
// probability p.
func dropEngine(t *testing.T, p float64, seed uint64) *chaos.Engine {
	t.Helper()
	e, err := chaos.NewEngine(chaos.Config{DropProb: p}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestChaosRunDeterministic: two runs with the same master seed and the same
// chaos engine seed must be bit-identical — every round record, global model
// digest and virtual timings included, and the degradation stats.
func TestChaosRunDeterministic(t *testing.T) {
	run := func() ([]fl.RoundRecord, fl.RunStats) {
		w := tinyWorkload()
		w.FL.Chaos = chaosEngine(t, 7)
		tb := expcfg.Build(w, 6, trace.PaperConfig(), 60)
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		return roundRecords(r, 4), r.Stats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if !slices.Equal(r1, r2) {
		t.Fatalf("round records differ between identical chaos runs:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	// The schedule must actually have injected something in 4 rounds × 6
	// clients with these probabilities (seed-dependent; bump seeds if not).
	if s1.DroppedRounds == 0 && s1.Quarantined == 0 && s1.LinkRetries == 0 {
		t.Fatalf("chaos run injected no observable fault: %+v", s1)
	}
}

// TestChaosCorruptionQuarantined: with every update corrupted, validation
// must quarantine them all, skip the round, and leave the model untouched —
// at a partial-aggregation cut and at full aggregation, where the fold
// recycles each delta as it passes it. No quarantined delta outlives the
// round either way.
func TestChaosCorruptionQuarantined(t *testing.T) {
	for _, fraction := range []float64{0.9, 1} {
		w := tinyWorkload()
		e, err := chaos.NewEngine(chaos.Config{CorruptProb: 1}, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Exploded deltas are finite; the model-relative norm bound catches
		// them without any configured cap.
		w.FL.Chaos = e
		w.FL.AggregateFraction = fraction
		tb := expcfg.Build(w, 3, trace.Config{}, 61)
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		before := r.GlobalFlat()
		res := r.RunRound()
		if !res.Skipped {
			t.Fatalf("fraction %v: round with only corrupted updates must be skipped", fraction)
		}
		if res.Quarantined != 3 {
			t.Fatalf("fraction %v: Quarantined = %d, want all 3 corrupted updates", fraction, res.Quarantined)
		}
		quarantined := 0
		for _, u := range res.Discarded {
			if !u.Quarantined {
				continue
			}
			quarantined++
			if u.Delta != nil {
				t.Fatalf("fraction %v: a quarantined delta outlived the round", fraction)
			}
		}
		if quarantined != res.Quarantined {
			t.Fatalf("fraction %v: Quarantined = %d but %d flagged updates in Discarded", fraction, res.Quarantined, quarantined)
		}
		after := r.GlobalFlat()
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("fraction %v: quarantine-skipped round must leave the model unchanged", fraction)
			}
		}
		if st := r.Stats(); st.Quarantined != res.Quarantined || st.SkippedRounds != 1 {
			t.Fatalf("fraction %v: runner stats %+v disagree with round result", fraction, st)
		}
	}
}

// TestMaxDeltaNormQuarantinesExplosions: an exploded or diverged update is
// quarantined whether or not chaos injected it and whether or not the
// absolute cap is set — the bound derived from the model catches it — so the
// round skips and the model stays as it was.
func TestMaxDeltaNormQuarantinesExplosions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		explode bool    // chaos corrupts every update by scaling it 1e9
		lr      float64 // 0 keeps the workload's
		maxNorm float64
	}{
		{"explode-capped", true, 0, 1e6},
		{"explode-uncapped", true, 0, 0},
		{"diverged-lr", false, 1e3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tinyWorkload()
			if tc.explode {
				// Chaos seed 13 draws the Explode kind for all three
				// clients: every corrupted delta is finite, so only a norm
				// bound can catch it.
				e, err := chaos.NewEngine(chaos.Config{CorruptProb: 1, ExplodeScale: 1e9}, 13)
				if err != nil {
					t.Fatal(err)
				}
				w.FL.Chaos = e
			}
			if tc.lr > 0 {
				w.FL.LR = tc.lr
			}
			w.FL.MaxDeltaNorm = tc.maxNorm
			tb := expcfg.Build(w, 3, trace.Config{}, 62)
			r, err := tb.NewRunner(baseline.FedAvg{})
			if err != nil {
				t.Fatal(err)
			}
			before := r.GlobalFlat()
			res := r.RunRound()
			if !res.Skipped || res.Quarantined != 3 || len(res.Discarded) != 3 {
				t.Fatalf("skipped %v, quarantined %d of %d discarded; want a skipped round with all 3 updates quarantined",
					res.Skipped, res.Quarantined, len(res.Discarded))
			}
			after := r.GlobalFlat()
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("param %d moved %v -> %v in a quarantine-skipped round", i, before[i], after[i])
				}
			}
		})
	}
}

// TestMinQuorumSkipsThinRounds: surviving updates below the quorum cause a
// recorded skip even though the updates themselves are healthy.
func TestMinQuorumSkipsThinRounds(t *testing.T) {
	w := tinyWorkload()
	w.FL.MinQuorum = 3 // only 2 clients exist: every round is below quorum
	tb := expcfg.Build(w, 2, trace.Config{}, 63)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	before := r.GlobalFlat()
	res := r.RunRound()
	if !res.Skipped {
		t.Fatal("below-quorum round must be skipped")
	}
	if len(res.Collected) == 0 {
		t.Fatal("healthy survivors must stay visible in Collected")
	}
	after := r.GlobalFlat()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("below-quorum round must not aggregate")
		}
	}
	// The survivors' timings still feed the history.
	if len(r.Hist.EstRoundTimes(1)) == 0 {
		t.Fatal("skipped round must still observe survivor timings")
	}
}

// TestRunStatsPolledDuringChaosRound hammers Runner.Stats and StageTimes
// from a second goroutine while chaos-faulted rounds execute. Under -race
// this pins the synchronization of the tally and the stage table with fault
// injection active.
func TestRunStatsPolledDuringChaosRound(t *testing.T) {
	w := tinyWorkload()
	w.FL.Chaos = chaosEngine(t, 19)
	tb := expcfg.Build(w, 8, trace.PaperConfig(), 64)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = r.Stats()
			_ = r.StageTimes()
			runtime.Gosched()
		}
	}()
	for i := 0; i < 3; i++ {
		r.RunRound()
	}
	close(done)
	wg.Wait()
	if st := r.Stats(); st.Rounds != 3 {
		t.Fatalf("stats.Rounds = %d, want 3", st.Rounds)
	}
	if train := r.StageTimes()[3]; train.Stage != "train" || train.Rounds != 3 {
		t.Fatalf("stage row 3 = %+v, want train over 3 rounds", train)
	}
}

// eagerAtOneCtrl eagerly transmits layer 0 after the first iteration.
type eagerAtOneCtrl struct{ fl.NopController }

func (eagerAtOneCtrl) AfterIteration(st fl.IterState) fl.IterAction {
	if st.Iter == 1 {
		return fl.IterAction{EagerLayers: []int{0}}
	}
	return fl.IterAction{}
}

// TestDropMidEagerReleasesUplink: a client dropping after an eager
// transmission must never contribute a partial layer to aggregation, and the
// next round's reset must release the occupied uplink.
func TestDropMidEagerReleasesUplink(t *testing.T) {
	cases := []struct {
		name    string
		dropAt  int
		eager   bool // an eager send happened before the drop
		dropped bool
	}{
		{"drop-before-eager", 1, false, true},
		{"drop-right-after-eager", 2, true, true},
		{"drop-later", 5, true, true},
		{"no-drop", 0, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tinyWorkload()
			if tc.dropAt > 0 {
				// Force an exact iteration-level drop in round 0 through the
				// chaos engine by scanning engine seeds for a matching plan.
				for seed := uint64(0); seed < 4096 && w.FL.Chaos == nil; seed++ {
					e, err := chaos.NewEngine(chaos.Config{DropProb: 1}, seed)
					if err != nil {
						t.Fatal(err)
					}
					if e.Plan(0, 0, w.FL.LocalIters, w.FL.BaseIterTime).DropIter() == tc.dropAt {
						w.FL.Chaos = e
					}
				}
				if w.FL.Chaos == nil {
					t.Fatalf("no engine seed with a drop at iteration %d found; widen the scan", tc.dropAt)
				}
			}
			tb := expcfg.Build(w, 1, trace.Config{}, 65)
			r, err := tb.NewRunner(ctrlScheme{ctrl: eagerAtOneCtrl{}})
			if err != nil {
				t.Fatal(err)
			}
			before := r.GlobalFlat()
			u := onlyUpdate(t, r)
			if tc.dropAt > 0 {
				verifyDroppedClient(t, tb.Clients[0], u, tc.eager)
				return
			}
			if u.Dropped || slices.Equal(before, r.GlobalFlat()) {
				t.Fatal("no-drop case must deliver a full update")
			}
		})
	}
}

func verifyDroppedClient(t *testing.T, c *fl.Client, u fl.Update, eagerBeforeDrop bool) {
	t.Helper()
	if !u.Dropped {
		t.Fatal("client must drop at the planned iteration")
	}
	if u.Delta != nil {
		t.Fatal("dropped client must never hand the server a delta — not even a partial eager layer")
	}
	if !math.IsInf(u.CompletionTime, 1) {
		t.Fatal("dropped update must sort last (CompletionTime = +Inf)")
	}
	if eagerBeforeDrop {
		if u.EagerSent == 0 || u.UploadBytes == 0 {
			t.Fatalf("eager traffic before the drop must be accounted: %d sends, %v bytes", u.EagerSent, u.UploadBytes)
		}
		if c.Up.BytesSent() == 0 {
			t.Fatal("the abandoned eager transfer should have been carried on the uplink")
		}
	} else if u.EagerSent != 0 {
		t.Fatal("no eager send should precede a drop at iteration 1")
	}
	// Next round: the reset releases whatever the dead client left on the
	// uplink, so a fresh transfer starts immediately.
	const nextStart = 1e9
	c.Up.ResetAt(nextStart)
	start, _ := c.Up.TransferAttempts(nextStart, 10, 1)
	if start != nextStart {
		t.Fatalf("uplink not released by round reset: next transfer starts at %v, want %v", start, nextStart)
	}
}

// finalizeCounter is a scheme whose controllers count their Finalize calls
// per client-round and send layer 0 eagerly after the first iteration. On a
// dropped round Finalize asks to retransmit every eager record and one index
// out of range: the runner must ignore that action.
type finalizeCounter struct {
	baseline.FedAvg
	mu    sync.Mutex
	calls map[[2]int][]bool // (round, client) → Dropped of each Finalize
}

type countingCtrl struct {
	s             *finalizeCounter
	round, client int
}

func (s *finalizeCounter) NewController(c *fl.Client, round int, _ fl.RoundPlan) fl.Controller {
	return &countingCtrl{s: s, round: round, client: c.ID}
}

func (c *countingCtrl) AfterIteration(st fl.IterState) fl.IterAction {
	if st.Iter == 1 {
		return fl.IterAction{EagerLayers: []int{0}}
	}
	return fl.IterAction{}
}

func (c *countingCtrl) Finalize(st fl.FinalState) fl.FinalAction {
	c.s.mu.Lock()
	k := [2]int{c.round, c.client}
	c.s.calls[k] = append(c.s.calls[k], st.Dropped)
	c.s.mu.Unlock()
	if !st.Dropped {
		return fl.FinalAction{}
	}
	if st.Delta != nil {
		panic("a dropped round's Finalize got a delta")
	}
	retransmit := []int{len(st.Eager)}
	for i := range st.Eager {
		retransmit = append(retransmit, i)
	}
	return fl.FinalAction{Retransmit: retransmit}
}

// clientRoundLog is an observer that keeps each client-round's update, and
// whether any of its eager records was marked retransmitted.
type clientRoundLog struct {
	updates map[[2]int]fl.Update
	marked  map[[2]int]bool
}

func (l *clientRoundLog) ClientRound(round int, _ float64, u *fl.Update) {
	k := [2]int{round, u.ClientID}
	l.updates[k] = *u
	for _, e := range u.Eager {
		l.marked[k] = l.marked[k] || e.Retransmitted
	}
}

func (*clientRoundLog) RoundDone(fl.RoundRecord, fl.RoundMeta) {}

// TestFinalizeClosesEveryClientRound: every client-round ends in exactly one
// Finalize, dropped or not, with FinalState.Dropped equal to the update's
// Dropped; the retransmissions a dropped round's Finalize asks for mark
// nothing, and an index out of range there does not panic.
func TestFinalizeClosesEveryClientRound(t *testing.T) {
	const clients, rounds = 6, 4
	w := tinyWorkload()
	w.FL.Chaos = dropEngine(t, 0.5, 21)
	log := &clientRoundLog{updates: make(map[[2]int]fl.Update), marked: make(map[[2]int]bool)}
	w.FL.Observers = []fl.Observer{log}
	s := &finalizeCounter{calls: make(map[[2]int][]bool)}
	r, err := expcfg.Build(w, clients, trace.PaperConfig(), 22).NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		r.RunRound()
	}
	if len(log.updates) != clients*rounds {
		t.Fatalf("observed %d client-rounds, want %d", len(log.updates), clients*rounds)
	}
	droppedAfterEager := 0
	for k, u := range log.updates {
		calls := s.calls[k]
		if len(calls) != 1 || calls[0] != u.Dropped {
			t.Fatalf("round %d client %d (dropped %v): Finalize calls %v, want exactly [%v]", k[0], k[1], u.Dropped, calls, u.Dropped)
		}
		if u.Dropped && (u.Retransmitted != 0 || log.marked[k]) {
			t.Fatalf("round %d client %d: a dropped round marked retransmissions (count %d, an eager record marked: %v)", k[0], k[1], u.Retransmitted, log.marked[k])
		}
		if u.Dropped && u.EagerSent > 0 {
			droppedAfterEager++
		}
	}
	if len(s.calls) != len(log.updates) {
		t.Fatalf("Finalize ran for %d client-rounds, the runner recorded %d", len(s.calls), len(log.updates))
	}
	if droppedAfterEager == 0 || r.Stats().DroppedRounds == clients*rounds {
		t.Fatalf("drop=0.5 must drop some client-rounds after an eager send and keep others (dropped %d, after eager %d); change the seed",
			r.Stats().DroppedRounds, droppedAfterEager)
	}
}
