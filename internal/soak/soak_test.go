package soak

import (
	"strings"
	"testing"

	"fedca"
	"fedca/internal/runlog"
	"fedca/internal/telemetry"
)

// tinyBase and tinyRun are a base phase and run small enough for unit
// tests: two rounds per phase, a couple of clients on the smallest workload.
func tinyBase() Phase { return Phase{Rounds: 2} }

func tinyRun() fedca.Options {
	o := DefaultRun()
	o.Clients, o.LocalIters, o.BatchSize, o.TrainSamples, o.TestSamples = 2, 2, 4, 32, 16
	return o
}

func TestSoakRunCleanSchedule(t *testing.T) {
	cfg := Config{
		Schedule:   "name=calm;rounds=3|name=storm;rounds=3;chaos=drop=0.2,slow=0.3;quorum=1",
		Rounds:     12,
		Seed:       7,
		Base:       tinyBase(),
		Run:        tinyRun(),
		CheckEvery: 2,
		// Recheck every phase: the determinism invariant is the test's point.
		RecheckEvery: 1,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("clean soak reported violations: %+v", rep.Violations)
	}
	if rep.Rounds != 12 {
		t.Fatalf("Rounds = %d, want 12", rep.Rounds)
	}
	// 12 rounds over a 3+3 schedule = 4 phases, two full cycles.
	if len(rep.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(rep.Phases))
	}
	if got := rep.Phases[3].Cycle; got != 1 {
		t.Fatalf("phase 3 cycle = %d, want 1", got)
	}
	for i, p := range rep.Phases {
		if p.Fingerprint == "" {
			t.Fatalf("phase %d missing fingerprint: %+v", i, p)
		}
		if p.Spec == "" || !strings.Contains(p.Spec, "name=") {
			t.Fatalf("phase %d spec not canonical: %q", i, p.Spec)
		}
	}
	// Cycle 2 re-runs an identical spec? No — seeds fork per global phase
	// ordinal, and a phase's spec carries its seed, so same-named phases
	// across cycles must differ.
	if rep.Phases[0].Spec == rep.Phases[2].Spec {
		t.Fatal("phase seeds did not fork across cycles")
	}
	if rep.Rechecks == 0 {
		t.Fatal("determinism monitor never ran a recheck")
	}
	if rep.MaxInflight > rep.TokenCap {
		t.Fatalf("MaxInflight %d exceeds token cap %d", rep.MaxInflight, rep.TokenCap)
	}
}

// TestSoakInjectedViolationReproduces is the acceptance test from the issue:
// an impossible quarantine band must produce a violation whose recorded spec
// string and seed reproduce the flagged phase bit-identically, and whose
// report entry carries the journal's event window from just before it fired.
func TestSoakInjectedViolationReproduces(t *testing.T) {
	cfg := Config{
		// quarband=0.9:1 demands >=90% of updates be quarantined — impossible
		// in a calm phase, so the rates monitor must fire.
		Schedule:     "name=impossible;rounds=3;quarband=0.9:1",
		Rounds:       3,
		Seed:         11,
		Base:         tinyBase(),
		Run:          tinyRun(),
		CheckEvery:   1,
		RecheckEvery: -1,
		Journal:      fedca.NewJournal(0),
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("impossible quarantine band produced no violation")
	}
	var v *Violation
	for i := range rep.Violations {
		if rep.Violations[i].Monitor == "rates" {
			v = &rep.Violations[i]
			break
		}
	}
	if v == nil {
		t.Fatalf("no rates violation in %+v", rep.Violations)
	}
	if v.Spec == "" || v.Phase != "impossible" {
		t.Fatalf("violation not self-describing: %+v", v)
	}
	// The flight recorder's causal window: the violation entry must carry the
	// journal events leading up to it, in order, including the phase's rounds.
	if len(v.Events) == 0 {
		t.Fatal("violation carries no journal events")
	}
	roundEvents := 0
	for i, e := range v.Events {
		if i > 0 && e.Seq <= v.Events[i-1].Seq {
			t.Fatalf("violation events out of order: %+v", v.Events)
		}
		if e.Type == telemetry.EvRound || e.Type == telemetry.EvRoundSkip {
			roundEvents++
		}
	}
	if roundEvents == 0 {
		t.Fatalf("violation event window has no round events: %+v", v.Events)
	}
	// The window survives the report's JSON round trip.
	path := t.TempDir() + "/violation-report.json"
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	survived := false
	for _, rv := range rt.Violations {
		if rv.Monitor == v.Monitor && rv.Round == v.Round && len(rv.Events) == len(v.Events) {
			survived = true
			break
		}
	}
	if !survived {
		t.Fatalf("violation events drifted through JSON round trip: %+v", rt.Violations)
	}

	// Reproduce from the violation alone: its spec, seed included.
	got, err := RunPhase(v.Spec, nil)
	if err != nil {
		t.Fatalf("reproducing from violation spec: %v", err)
	}
	want := rep.Phases[0]
	if got.Fingerprint != want.Fingerprint {
		t.Fatalf("reproduced fingerprint %s != live %s", got.Fingerprint, want.Fingerprint)
	}
	// And the reproduced phase itself violates the recorded band.
	attempts := got.Collected + got.Quarantined
	quarRate := 0.0
	if attempts > 0 {
		quarRate = float64(got.Quarantined) / float64(attempts)
	}
	if want.Bands.Quarantine.Contains(quarRate) {
		t.Fatalf("reproduced phase satisfies the impossible band: rate %v in %v", quarRate, want.Bands.Quarantine)
	}
}

// TestSoakRunPhaseTelemetryInert asserts RunPhase's determinism contract
// directly: telemetry attached vs absent yields identical fingerprints.
func TestSoakRunPhaseTelemetryInert(t *testing.T) {
	p := tinyBase().Resolve(defaultBase())
	p.Name = "inert"
	run := tinyRun()
	run.Chaos = "drop=0.2,xfail=0.1,retries=3"
	run.Seed = 99
	bare, err := RunPhase(p.Spec(run), nil)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := RunPhase(p.Spec(run), fedca.NewTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	if bare.Fingerprint != instrumented.Fingerprint {
		t.Fatalf("telemetry changed the run: %s vs %s", bare.Fingerprint, instrumented.Fingerprint)
	}
}

func TestSoakRunLogPhaseMarkers(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/soak.jsonl"
	w, err := runlog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedule:     "name=a;rounds=2|name=b;rounds=2",
		Rounds:       6,
		Seed:         3,
		Base:         tinyBase(),
		Run:          tinyRun(),
		CheckEvery:   3,
		RecheckEvery: -1,
		Log:          w,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := runlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Phases) != len(rep.Phases) {
		t.Fatalf("log has %d phase markers, report has %d phases", len(run.Phases), len(rep.Phases))
	}
	if len(run.Rounds) != rep.Rounds {
		t.Fatalf("log has %d rounds, report ran %d", len(run.Rounds), rep.Rounds)
	}
	// Markers must carry the reproduction recipe and the right offsets.
	for i, m := range run.Phases {
		p := rep.Phases[i]
		if m.Spec != p.Spec || m.StartRound != p.StartRound {
			t.Fatalf("marker %d drifted from report: %+v vs %+v", i, m, p)
		}
	}
	// Round indices are globally monotonic across phases.
	for i, rec := range run.Rounds {
		if rec.Index != i {
			t.Fatalf("round %d logged with index %d", i, rec.Index)
		}
	}
}

func TestSoakFinalPhaseTruncatedToBudget(t *testing.T) {
	cfg := Config{
		Schedule:     "name=long;rounds=10",
		Rounds:       7,
		Seed:         5,
		Base:         tinyBase(),
		Run:          tinyRun(),
		RecheckEvery: -1,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 7 {
		t.Fatalf("Rounds = %d, want 7", rep.Rounds)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Rounds != 7 {
		t.Fatalf("final phase not truncated: %+v", rep.Phases)
	}
	// The truncated round count is part of the phase's canonical spec, so
	// the report still reproduces it exactly.
	if !strings.Contains(rep.Phases[0].Spec, "rounds=7") {
		t.Fatalf("truncation not reflected in spec: %q", rep.Phases[0].Spec)
	}
}

func TestSoakReportRoundTrip(t *testing.T) {
	cfg := Config{
		Schedule:     "name=rt;rounds=2",
		Rounds:       2,
		Seed:         1,
		Base:         tinyBase(),
		Run:          tinyRun(),
		RecheckEvery: -1,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/report.json"
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != rep.Seed || got.Pass != rep.Pass || len(got.Phases) != len(rep.Phases) {
		t.Fatalf("report drifted through JSON: %+v vs %+v", got, rep)
	}
	if got.Phases[0].Fingerprint != rep.Phases[0].Fingerprint {
		t.Fatal("fingerprint drifted through JSON")
	}
}

func TestSoakConfigValidation(t *testing.T) {
	cases := []Config{
		{Schedule: "name=x;rounds=bogus"},             // unparseable
		{Schedule: "name=x;rounds=2", Rounds: -1},     // bad budget
		{Schedule: "name=x;rounds=2;model=nosuch"},    // unknown model caught at Run
		{Schedule: "name=x;rounds=2;quarband=2:1"},    // inverted band
		{Schedule: "name=x;rounds=2;alpha=NaN"},       // non-finite float
		{Schedule: strings.Repeat("a", maxSpecLen+1)}, // oversized spec
	}
	for i, cfg := range cases {
		cfg.Base, cfg.Run = tinyBase(), tinyRun()
		r, err := New(cfg)
		if err != nil {
			continue // rejected at construction: good
		}
		if _, err := r.Run(); err == nil {
			t.Fatalf("case %d: bad config %+v ran cleanly", i, cfg)
		}
	}
}
