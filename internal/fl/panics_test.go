package fl_test

import (
	"runtime"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/trace"
)

// badEagerCtrl asks for a layer index outside the model.
type badEagerCtrl struct{ fl.NopController }

func (badEagerCtrl) AfterIteration(fl.IterState) fl.IterAction {
	return fl.IterAction{EagerLayers: []int{9999}}
}

// badRetransCtrl asks to retransmit a nonexistent eager record.
type badRetransCtrl struct{ fl.NopController }

func (badRetransCtrl) Finalize(fl.FinalState) fl.FinalAction {
	return fl.FinalAction{Retransmit: []int{0}}
}

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic: %s", what)
		}
	}()
	f()
}

func TestClientRoundPanicsOnBadControllerOutput(t *testing.T) {
	// A controller's contract violation panics out of RunRound whichever
	// worker trained the client: the calling goroutine (one client) or a
	// goroutine the train stage started (four clients at cap 2), whose panic
	// only the caller can recover, so the fan-out must re-raise it there.
	// Only some runs start a client on the second worker before the first
	// panic, so one pass is no evidence. GOMAXPROCS and the token cap are
	// pinned to 2 so the runner has a second worker whatever the machine;
	// the budget must hold no token after the panic.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(2)
	for _, tc := range []struct {
		what    string
		ctrl    fl.Controller
		clients int
		seed    uint64
	}{
		{"eager layer out of range", badEagerCtrl{}, 1, 80},
		{"retransmit index out of range", badRetransCtrl{}, 1, 81},
		{"eager layer out of range on any of 4 clients", badEagerCtrl{}, 4, 80},
	} {
		r, err := tinyTestbed(t, tc.clients, trace.Config{}, tc.seed).NewRunner(ctrlScheme{ctrl: tc.ctrl})
		if err != nil {
			t.Fatal(err)
		}
		held := budget.Inflight()
		expectPanic(t, tc.what, func() { r.RunRound() })
		if n := budget.Inflight(); n != held {
			t.Fatalf("%s: %d tokens held after the panic, want %d", tc.what, n, held)
		}
	}
}

// badSelector returns an unknown client id.
type badSelector struct{ baseline.FedAvg }

func (badSelector) Select(_ int, _ *fl.History, _, _ int, dst []int) []int {
	return append(dst, 12345)
}

func TestRunnerPanicsOnUnknownSelection(t *testing.T) {
	tb := tinyTestbed(t, 2, trace.Config{}, 83)
	r, err := tb.NewRunner(badSelector{})
	if err != nil {
		t.Fatal(err)
	}
	expectPanic(t, "selector chose unknown client", func() { r.RunRound() })
}

// badCarry carries an update whose delta has the wrong length.
type badCarry struct{ baseline.FedAvg }

func (badCarry) Carry(int, []fl.Update) []fl.Update {
	return []fl.Update{{Weight: 1, Delta: make([]float64, 1)}}
}

func TestRunnerPanicsOnBadCarry(t *testing.T) {
	tb := tinyTestbed(t, 2, trace.Config{}, 84)
	r, err := tb.NewRunner(badCarry{})
	if err != nil {
		t.Fatal(err)
	}
	expectPanic(t, "carried delta wrong size", func() { r.RunRound() })
}

// TestAllDroppedRoundSkips is the regression for the seed's panic("fl: every
// client dropped out this round"): a round with no surviving update must be
// recorded as skipped — model unchanged, virtual time advanced, stats
// incremented — and the run must keep going.
func TestAllDroppedRoundSkips(t *testing.T) {
	w := tinyWorkload()
	w.FL.Chaos = dropEngine(t, 1, 85)
	tb := expcfg.Build(w, 2, trace.Config{}, 85)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	before := r.GlobalFlat()
	res := r.RunRound()
	if !res.Skipped {
		t.Fatal("all-dropped round must be marked Skipped")
	}
	if len(res.Collected) != 0 || len(res.Discarded) != 2 {
		t.Fatalf("collected/discarded = %d/%d, want 0/2", len(res.Collected), len(res.Discarded))
	}
	if res.MeanIterations != 0 {
		t.Fatalf("skipped-round means must be 0, got %v", res.MeanIterations)
	}
	after := r.GlobalFlat()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("skipped round must leave the global model unchanged")
		}
	}
	// Nothing arrived, so the round ends when the last client's training
	// did: its download and its burned compute.
	var lastTrainEnd float64
	for _, u := range res.Discarded {
		lastTrainEnd = max(lastTrainEnd, u.TrainEnd)
	}
	if res.End != lastTrainEnd || res.End <= res.Start {
		t.Fatalf("round [%v, %v] must end at the latest TrainEnd %v", res.Start, res.End, lastTrainEnd)
	}
	if st := r.Stats(); st.SkippedRounds != 1 || st.Rounds != 1 || st.DroppedRounds != 2 {
		t.Fatalf("stats = %+v, want 1 skipped / 1 round / 2 dropped client-rounds", st)
	}
	// The run continues: the next round executes without panicking.
	res2 := r.RunRound()
	if res2.Index != 1 || !res2.Skipped {
		t.Fatalf("second round = %+v, want round 1, still skipped at p=1", res2.Index)
	}
	if r.Stats().SkippedRounds != 2 {
		t.Fatal("second skipped round not counted")
	}
}

// selectorSubset exercises the dedup path: duplicate ids collapse.
type selectorSubset struct{ baseline.FedAvg }

func (selectorSubset) Select(_ int, _ *fl.History, _, _ int, dst []int) []int {
	return append(dst, 1, 1, 0)
}

func TestSelectorDedup(t *testing.T) {
	tb := tinyTestbed(t, 3, trace.Config{}, 86)
	r, err := tb.NewRunner(selectorSubset{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	if got := len(res.Collected) + len(res.Discarded); got != 2 {
		t.Fatalf("participants = %d, want 2 (dedup)", got)
	}
}
