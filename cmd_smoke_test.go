package fedca_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fedca"
	"fedca/internal/runlog"
	"fedca/internal/telemetry"
)

// TestCommandSmoke builds every binary and exercises the happy paths:
// a tiny simulation with a JSONL log, the experiment list, and the plotter
// reading the log back. Guarded by -short.
func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"fedca-sim", "fedca-bench", "fedca-plot"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}

	logPath := filepath.Join(dir, "run.jsonl")
	sim := exec.Command(bins["fedca-sim"], "-model", "cnn", "-scheme", "fedavg",
		"-scale", "tiny", "-clients", "2", "-rounds", "2", "-log", logPath)
	out, err := sim.CombinedOutput()
	if err != nil {
		t.Fatalf("fedca-sim: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "round") {
		t.Fatalf("fedca-sim output unexpected:\n%s", out)
	}

	// A degraded run with telemetry: the trace must come out as structurally
	// valid Chrome trace-event JSON and the log header must carry the full
	// reproduction recipe (chaos spec, quorum, norm bound, compressor).
	tracePath := filepath.Join(dir, "run-trace.json")
	chaosLog := filepath.Join(dir, "chaos.jsonl")
	sim = exec.Command(bins["fedca-sim"], "-model", "cnn", "-scheme", "fedca",
		"-scale", "tiny", "-clients", "2", "-rounds", "2",
		"-chaos", "drop=0.2,slow=0.3", "-quorum", "1", "-maxnorm", "1e6",
		"-compress", "qsgd7", "-log", chaosLog, "-trace", tracePath)
	if out, err := sim.CombinedOutput(); err != nil {
		t.Fatalf("fedca-sim -trace: %v\n%s", err, out)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(traceData, &tr); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 || tr.DisplayTimeUnit != "ms" {
		t.Fatalf("trace structurally wrong: %d events, unit %q", len(tr.TraceEvents), tr.DisplayTimeUnit)
	}
	sawRound, sawClientTrack := false, false
	for i, e := range tr.TraceEvents {
		if e.Ph != "X" && e.Ph != "i" && e.Ph != "M" {
			t.Fatalf("trace event %d: unexpected phase %q", i, e.Ph)
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Fatalf("trace event %d: negative ts/dur: %+v", i, e)
		}
		sawRound = sawRound || e.Name == "round"
		sawClientTrack = sawClientTrack || e.TID > 0
	}
	if !sawRound || !sawClientTrack {
		t.Fatalf("trace missing round span (%v) or client tracks (%v)", sawRound, sawClientTrack)
	}
	run, err := runlog.Open(chaosLog)
	if err != nil {
		t.Fatal(err)
	}
	var logged fedca.Options
	if err := logged.Set(run.Header.Spec); err != nil {
		t.Fatalf("log header spec %q: %v", run.Header.Spec, err)
	}
	if logged.Chaos != "drop=0.2,slow=0.3" || logged.MinQuorum != 1 ||
		logged.MaxDeltaNorm != 1e6 || logged.Compress != "qsgd7" || logged.Clients != 2 {
		t.Fatalf("log header missing reproduction fields: %q", run.Header.Spec)
	}

	// replay re-runs a log from its header and compares every round: the
	// log just written matches; the same log with round 1 edited does not,
	// and the failure names that round.
	if out, err := exec.Command(bins["fedca-sim"], "replay", chaosLog).CombinedOutput(); err != nil {
		t.Fatalf("fedca-sim replay of its own log: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(chaosLog)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	edited := strings.Replace(lines[2], `"collected":`, `"collected":999,"x":`, 1)
	if edited == lines[2] || !strings.Contains(lines[2], `"round":1,`) {
		t.Fatalf("log line 3 is not round 1's record: %s", lines[2])
	}
	lines[2] = edited
	editedLog := filepath.Join(dir, "edited.jsonl")
	if err := os.WriteFile(editedLog, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bins["fedca-sim"], "replay", editedLog).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "round 1 differs") {
		t.Fatalf("fedca-sim replay of an edited log: want a failure naming round 1, got %v:\n%s", err, out)
	}
	if code := err.(*exec.ExitError).ExitCode(); code != 1 {
		t.Fatalf("fedca-sim replay of an edited log exited %d, want 1:\n%s", code, out)
	}
	// A log written under an older spec version fails loudly with the
	// version error, exit 2, instead of replaying a misparsed run.
	if !strings.HasPrefix(lines[0], `{"kind":"header","spec":"v=2;`) {
		t.Fatalf("log header is not a v=2 spec: %s", lines[0])
	}
	lines[0] = strings.Replace(lines[0], `"spec":"v=2;`, `"spec":"v=1;`, 1)
	oldLog := filepath.Join(dir, "v1.jsonl")
	if err := os.WriteFile(oldLog, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bins["fedca-sim"], "replay", oldLog).CombinedOutput()
	if err == nil || !strings.Contains(string(out), `spec version "1", want 2`) {
		t.Fatalf("fedca-sim replay of a v=1 log: want the spec-version error, got %v:\n%s", err, out)
	}
	if code := err.(*exec.ExitError).ExitCode(); code != 2 {
		t.Fatalf("fedca-sim replay of a v=1 log exited %d, want 2:\n%s", code, out)
	}

	// -spec replaces the run flags; giving both is an error.
	if out, err := exec.Command(bins["fedca-sim"], "-spec", run.Header.Spec, "-rounds", "1").CombinedOutput(); err != nil {
		t.Fatalf("fedca-sim -spec: %v\n%s", err, out)
	}
	if err := exec.Command(bins["fedca-sim"], "-spec", run.Header.Spec, "-seed", "3", "-rounds", "1").Run(); err == nil {
		t.Fatal("fedca-sim with -spec and a run flag must fail")
	}

	// -events streams the flight recorder as JSON lines: every line an
	// event, seqs strictly increasing, as many lines as the CLI reports.
	eventsPath := filepath.Join(dir, "events.jsonl")
	out, err = exec.Command(bins["fedca-sim"], "-scale", "tiny", "-rounds", "2",
		"-chaos", "drop=0.3", "-events", eventsPath).CombinedOutput()
	if err != nil {
		t.Fatalf("fedca-sim -events: %v\n%s", err, out)
	}
	eventsRaw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSuffix(string(eventsRaw), "\n"), "\n")
	var lastSeq uint64
	for i, line := range lines {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("events line %d is not an event: %v\n%s", i+1, err, line)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("events line %d: seq %d after %d", i+1, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
	}
	if want := fmt.Sprintf("%s (%d events)\n", eventsPath, len(lines)); !strings.Contains(string(out), want) {
		t.Fatalf("fedca-sim -events wrote %d lines; output does not report them:\n%s", len(lines), out)
	}

	list, err := exec.Command(bins["fedca-bench"], "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("fedca-bench -list: %v\n%s", err, list)
	}
	for _, id := range []string{"table1", "fig7", "ext-compress"} {
		if !strings.Contains(string(list), id) {
			t.Fatalf("fedca-bench -list missing %s:\n%s", id, list)
		}
	}
	// Each cell is listed as its run's spec string, then its rounds, and
	// nothing else: a FedAvg and a FedCA cell's spec are runs fedca-sim
	// -spec and fedca.Options.Set accept.
	for _, scheme := range []string{"fedavg", "fedca"} {
		spec := ""
		for _, line := range strings.Split(string(list), "\n") {
			if f := strings.Fields(line); len(f) > 1 && strings.Contains(f[0], ";scheme="+scheme+";") {
				spec = f[0]
				break
			}
		}
		var cell fedca.Options
		if err := cell.Set(spec); err != nil || spec == "" || cell.Scheme != scheme {
			t.Fatalf("fedca-bench -list: %s cell spec %q does not parse: %v\n%s", scheme, spec, err, list)
		}
	}
	if strings.Contains(string(list), "label=") {
		t.Fatalf("fedca-bench -list: a cell's address carries more than its spec and rounds:\n%s", list)
	}

	ovh, err := exec.Command(bins["fedca-bench"], "-exp", "ovh", "-scale", "tiny").CombinedOutput()
	if err != nil {
		t.Fatalf("fedca-bench ovh: %v\n%s", err, ovh)
	}
	if !strings.Contains(string(ovh), "overhead") {
		t.Fatalf("ovh output unexpected:\n%s", ovh)
	}

	plot, err := exec.Command(bins["fedca-plot"], logPath).CombinedOutput()
	if err != nil {
		t.Fatalf("fedca-plot: %v\n%s", err, plot)
	}
	if !strings.Contains(string(plot), "fedavg") {
		t.Fatalf("plot missing legend:\n%s", plot)
	}

	// Error paths exit non-zero.
	if err := exec.Command(bins["fedca-bench"], "-exp", "nope").Run(); err == nil {
		t.Fatal("fedca-bench with unknown experiment must fail")
	}
	if err := exec.Command(bins["fedca-sim"], "-scheme", "nope", "-scale", "tiny").Run(); err == nil {
		t.Fatal("fedca-sim with unknown scheme must fail")
	}
	if err := exec.Command(bins["fedca-plot"]).Run(); err == nil {
		t.Fatal("fedca-plot without args must fail")
	}
}

// TestLibraryAndCLIBuildSameRun replays every TestSimGolden run log through
// the library: fedca.New of the options the log's header spec sets must run
// the rounds fedca-sim logged, record for record. fedca-sim and the facade
// lower one Options value the same way, so this holds by construction; the
// test pins that each header names its whole run.
func TestLibraryAndCLIBuildSameRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fedca-sim golden configuration")
	}
	logs, err := filepath.Glob(filepath.Join("cmd", "fedca-sim", "testdata", "sim", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 16 {
		t.Fatalf("found %d golden run logs, want 16", len(logs))
	}
	for _, path := range logs {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".jsonl"), func(t *testing.T) { replayLog(t, path) })
	}
}
