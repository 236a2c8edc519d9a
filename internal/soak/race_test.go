package soak

import (
	"io"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"fedca"
	"fedca/internal/telemetry"
	"fedca/introspect"
)

// TestSoakConcurrentIntrospection runs a ~100-round soak with every monitor
// active while a polling goroutine hammers the live introspection surface —
// /metrics, /metrics.json, /status and Runner.Status()/Federation snapshots
// directly — the whole time. Run under -race in CI, it is the soak harness's
// concurrency safety net: the monitored run must stay race-free while being
// observed, and observation must not perturb it (the runner's own
// determinism monitor rechecks fingerprints within this very test).
func TestSoakConcurrentIntrospection(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke skipped in -short")
	}
	tel := fedca.NewTelemetry()
	journal := fedca.NewJournal(512)
	cfg := Config{
		Schedule: "name=race-calm;rounds=25" +
			"|name=race-chaos;rounds=25;chaos=drop=0.2,slow=0.3,xfail=0.1,retries=3;quorum=1",
		Rounds:       100,
		Seed:         17,
		Base:         tinyBase(),
		Run:          tinyRun(),
		CheckEvery:   5,
		RecheckEvery: 2,
		Telemetry:    tel,
		Journal:      journal,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(introspect.NewMux(cfg.Telemetry, cfg.Journal, func() any { return r.Status() }))
	defer srv.Close()

	stop := make(chan struct{})
	pollDone := make(chan struct{})
	var polls atomic.Int64
	go func() {
		defer close(pollDone)
		client := srv.Client()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/metrics.json", "/status", "/events", "/clients?k=5", "/healthz"} {
				resp, err := client.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s = %d during soak", path, resp.StatusCode)
					return
				}
			}
			// Exercise the non-HTTP accessors the mux builds on, too.
			st := r.Status()
			if st.Round < 0 || st.Round > cfg.Rounds {
				t.Errorf("Status round %d out of range", st.Round)
				return
			}
			_ = st.Federation.Tokens
			// Read the journal directly while phases write it.
			for _, e := range journal.Tail(16) {
				if e.Seq == 0 {
					t.Error("journal tail returned an unwritten slot")
					return
				}
			}
			_, _ = journal.Clients().TopK(3, "compute")
			polls.Add(1)
		}
	}()

	rep, err := r.Run()
	close(stop)
	<-pollDone
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("soak under concurrent introspection reported violations: %+v", rep.Violations)
	}
	if rep.Rounds != 100 {
		t.Fatalf("Rounds = %d, want 100", rep.Rounds)
	}
	if rep.Rechecks == 0 {
		t.Fatal("determinism monitor never ran under load")
	}
	if polls.Load() == 0 {
		t.Fatal("polling goroutine never completed a pass")
	}
	st := r.Status()
	if st.Running {
		t.Fatal("Status still running after Run returned")
	}
	if st.Round != 100 {
		t.Fatalf("final Status round = %d, want 100", st.Round)
	}
	// The journal must have followed the run: both phases recorded, events in
	// order, and the attribution table populated.
	events := journal.Since(0)
	if len(events) == 0 {
		t.Fatal("journal empty after a 100-round soak")
	}
	phases := 0
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("journal out of order at %d", i)
		}
		if e.Type == telemetry.EvPhaseEnd {
			phases++
		}
	}
	// 100 rounds over a 25+25 schedule = 4 phases (two full cycles).
	if phases != 4 {
		t.Fatalf("journal recorded %d phase-end events in the retained window, want 4", phases)
	}
	if journal.Clients().Len() == 0 {
		t.Fatal("journal attributed no client-rounds")
	}
}
