package telemetry

import (
	"testing"

	"fedca/internal/chaos"
	"fedca/internal/fl"
)

// TestDisabledTelemetryZeroAllocs is the CI overhead guard: with telemetry
// disabled (nil sink) every hot-path entry point the round loop calls must
// allocate nothing, so shipping the instrumentation costs simulations that
// never enable it only a nil check.
func TestDisabledTelemetryZeroAllocs(t *testing.T) {
	var s *Sink
	if n := testing.AllocsPerRun(1000, func() {
		s.ObserveIteration(0.25)
		s.RoundDone(fl.RoundRecord{Index: 3, End: 10, Accuracy: 0.5, Collected: 8}, fl.RoundMeta{Fleet: 8, Cohort: 8})
		s.UpObserver()
		s.DownObserver()
		s.Tracer().Span(serverTrack, "x", "c", 0, 1, nil)
		s.Tracer().Instant(serverTrack, "x", "c", 0, nil)
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %v times per run, want 0", n)
	}

	// The disabled journal holds the same contract: every emission entry
	// point the instrumented layers call must be a free nil check.
	var j *Journal
	if n := testing.AllocsPerRun(1000, func() {
		j.RoundDone(fl.RoundRecord{Index: 3, End: 12.5, Collected: 8}, fl.RoundMeta{Fleet: 8, Cohort: 8})
		j.ClientRound(3, 0, &fl.Update{ClientID: 1, Quarantined: true, CompletionTime: 12.5})
		j.ClientRound(3, 0, &fl.Update{ClientID: 2, Iterations: 40, Dropped: true, TrainEnd: 12.5})
		j.ClientRound(3, 0, &fl.Update{ClientID: 2, Iterations: 40, Dropped: true, Anchor: true})
		j.ClientRound(3, 0, &fl.Update{ClientID: 1, Chaos: &chaos.Plan{Up: []chaos.LinkWindow{{From: 0, To: 1, Scale: 0.5}}}})
		j.CapChange(0, 1)
		j.PhaseStart(0, "x", "spec")
		j.PhaseEnd(0, "x", "fp")
		j.Violation("m", "p", 3, "d")
		j.ClientRound(0, 0, &fl.Update{ClientID: 1, Iterations: 40, TrainTime: 4.5, UploadBytes: 1024})
		j.Tail(8)
		j.Since(0)
		j.LastSeq()
		j.Clients()
	}); n != 0 {
		t.Fatalf("disabled journal allocated %v times per run, want 0", n)
	}
}

// TestEnabledHotPathZeroAllocs pins the per-iteration and per-transfer cost of
// an enabled sink: metric updates are pure atomics, no allocation.
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	s := New()
	obs := s.UpObserver()
	if n := testing.AllocsPerRun(1000, func() {
		s.ObserveIteration(0.25)
		s.Rounds.Inc()
		s.Accuracy.Set(0.5)
		s.RoundSeconds.Observe(12)
		obs.ObserveTransfer(0, 1, 4096, 1)
	}); n != 0 {
		t.Fatalf("enabled metric hot path allocated %v times per run, want 0", n)
	}
}
