package fedca_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fedca/internal/runlog"
	"fedca/internal/soak"
	"fedca/internal/telemetry"
)

// TestSoakCommandSmoke exercises fedca-sim's soak subcommand end to end: a
// tiny soak with report + phase-marked run log, reproduction of a recorded
// phase via the repro subcommand, and the exit-code contract (0 pass, 1
// violation, 2 setup error, a flag of the other mode included). Guarded by
// -short like TestCommandSmoke.
func TestSoakCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fedca-sim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fedca-sim")
	build.Env = os.Environ()
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fedca-sim: %v\n%s", err, b)
	}

	const tiny = ";clients=2;iters=2;batch=4;train=32;test=16"
	reportPath := filepath.Join(dir, "report.json")
	logPath := filepath.Join(dir, "soak.jsonl")
	eventsPath := filepath.Join(dir, "events.jsonl")
	run := exec.Command(bin, "soak", "-rounds", "6",
		"-spec", "name=calm;rounds=2"+tiny+"|name=storm;rounds=2"+tiny+";chaos=drop=0.3;quorum=1",
		"-check", "2", "-recheck", "1",
		"-report", reportPath, "-log", logPath, "-events", eventsPath, "-seed", "9")
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("fedca-sim soak: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "soak: PASS") {
		t.Fatalf("soak did not pass:\n%s", out)
	}

	// -events streams the flight recorder as JSONL: one valid event per line,
	// strictly ascending seqs, with every round and phase transition present.
	eventsRaw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	roundEvents, phaseEnds := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(eventsRaw)), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("events line not valid JSON: %v\n%s", err, line)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("events stream not ascending: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		switch e.Type {
		case telemetry.EvRound, telemetry.EvRoundSkip:
			roundEvents++
		case telemetry.EvPhaseEnd:
			phaseEnds++
		}
	}
	if roundEvents != 6 || phaseEnds != 3 {
		t.Fatalf("events stream has %d round / %d phase-end events, want 6/3", roundEvents, phaseEnds)
	}

	rep, err := soak.ReadReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || rep.Rounds != 6 || len(rep.Phases) != 3 {
		t.Fatalf("report unexpected: pass=%v rounds=%d phases=%d", rep.Pass, rep.Rounds, len(rep.Phases))
	}
	if rep.RecheckStats.Computed == 0 {
		t.Fatal("no determinism rechecks ran")
	}
	lg, err := runlog.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Phases) != 3 || len(lg.Rounds) != 6 {
		t.Fatalf("soak log has %d phase markers / %d rounds, want 3/6", len(lg.Phases), len(lg.Rounds))
	}

	// Reproduce phase 1 from the report; the binary verifies the fingerprint.
	repro, err := exec.Command(bin, "repro", reportPath+":1").CombinedOutput()
	if err != nil {
		t.Fatalf("fedca-sim repro: %v\n%s", err, repro)
	}
	if !strings.Contains(string(repro), "repro: PASS") {
		t.Fatalf("repro did not verify:\n%s", repro)
	}

	// An injected impossible band must exit 1 and write a failing report
	// whose violation reproduces.
	badReport := filepath.Join(dir, "bad.json")
	bad := exec.Command(bin, "soak", "-rounds", "2",
		"-spec", "name=impossible;rounds=2"+tiny+";quarband=0.9:1",
		"-recheck", "-1", "-report", badReport, "-seed", "9")
	badOut, err := bad.CombinedOutput()
	if err == nil {
		t.Fatalf("soak with impossible band exited 0:\n%s", badOut)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("violation exit code: %v (want 1)\n%s", err, badOut)
	}
	badRep, err := soak.ReadReport(badReport)
	if err != nil {
		t.Fatal(err)
	}
	if badRep.Pass || len(badRep.Violations) == 0 {
		t.Fatalf("failing report not recorded: %+v", badRep)
	}
	// The violation's report entry must carry its journal event context (the
	// soak CLI always runs with the flight recorder on).
	for i, v := range badRep.Violations {
		if len(v.Events) == 0 {
			t.Fatalf("violation %d carries no journal events: %+v", i, v)
		}
	}
	if !strings.Contains(string(badOut), "journal events captured") {
		t.Fatalf("violation output does not mention captured events:\n%s", badOut)
	}
	repro2, err := exec.Command(bin, "repro", badReport+":0").CombinedOutput()
	if err != nil {
		t.Fatalf("reproducing flagged phase: %v\n%s", err, repro2)
	}
	if !strings.Contains(string(repro2), "repro: PASS") {
		t.Fatalf("flagged phase did not reproduce bit-identically:\n%s", repro2)
	}

	// Setup errors exit 2, and so does a flag of the other mode: the
	// simulator takes no -soak, and the soak no simulation flag such as
	// -dtype, which it would otherwise ignore.
	for _, args := range [][]string{
		{"soak", "-spec", "bogus"},
		{"repro", "nope.json:0"},
		{"soak", "-rounds", "2", "-dtype", "f32"},
		{"-soak"},
	} {
		err := exec.Command(bin, args...).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("fedca-sim %s: exit %v, want 2", strings.Join(args, " "), err)
		}
	}
}
