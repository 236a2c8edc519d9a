package core_test

import (
	"testing"

	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

// TestDropoutAbortsAnchorRecording: a client dropping mid-anchor-round never
// reaches FinishAnchor; its Finalize, called with Dropped set and no delta,
// must disarm the profiler instead of leaving it armed with partial samples,
// while keeping the last completed anchor's curves.
func TestDropoutAbortsAnchorRecording(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 2, trace.Config{}, 90)
	s := core.NewScheme(fedcaOpts(w.FL.LocalIters), rng.New(91))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound() // complete anchor round 0: curves exist
	before := s.Profiler(0).Curves()
	if before == nil {
		t.Fatal("no curves after completed anchor")
	}

	// Round 3 is the next anchor (period 3). Build its controller by hand
	// and simulate the runner's dropout path, using the real model layout
	// (the profiler's sampled indices were fixed by round 0).
	net := tb.Nets.New64()
	ctrl := s.NewController(tb.Clients[0], 3, s.PlanRound(3, r.Hist))
	if !s.Profiler(0).Recording() {
		t.Fatal("anchor controller must arm recording")
	}
	ctrl.AfterIteration(fl.IterState{Iter: 1, K: w.FL.LocalIters, Budget: w.FL.LocalIters, Delta: make([]float64, net.NumParams()), Ranges: net.ParamRanges()})
	if act := ctrl.Finalize(fl.FinalState{Dropped: true, Iterations: 1, Ranges: net.ParamRanges()}); act.Retransmit != nil {
		t.Fatalf("dropped Finalize asked to retransmit %v", act.Retransmit)
	}
	if s.Profiler(0).Recording() {
		t.Fatal("dropout during anchor must disarm recording")
	}
	if s.Profiler(0).Curves() != before {
		t.Fatal("dropout must keep the stale curves in force")
	}
}

// TestDropoutOnAnchorRoundEndToEnd forces dropouts through real rounds
// (chaos drop on a workload whose round 0 is an anchor) and checks the
// invariant the seed code violated: no profiler is ever left recording once
// a round has finished, and aborted anchors are accounted.
func TestDropoutOnAnchorRoundEndToEnd(t *testing.T) {
	const clients = 8
	w := tinyWorkload()
	w.FL.Chaos = dropEngine(t, 0.5, 92)
	tb := expcfg.Build(w, clients, trace.PaperConfig(), 92)
	s := core.NewScheme(fedcaOpts(w.FL.LocalIters), rng.New(93))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for i := 0; i < 7; i++ { // anchors at rounds 0, 3, 6
		res := r.RunRound()
		for _, u := range res.Discarded {
			if u.Dropped {
				drops++
			}
		}
		for id := 0; id < clients; id++ {
			if s.Profiler(id).Recording() {
				t.Fatalf("round %d: client %d profiler left armed after the round", i, id)
			}
		}
	}
	st := r.Stats()
	if st.DroppedRounds != drops {
		t.Fatalf("stats.DroppedRounds = %d, runner saw %d dropped updates", st.DroppedRounds, drops)
	}
	if st.AnchorAborts == 0 {
		t.Fatal("expected at least one aborted anchor at p=0.5 over 3 anchor rounds (seed-dependent: adjust seed)")
	}
}
