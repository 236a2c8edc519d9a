// Command benchmark is the repository's one round benchmark: four workloads
// driven through the public fedca facade, the end-to-end metrics of each —
// those BENCHMARK.json bounds across seeds, and those that are bound to the
// seed and compare at equal seeds only — and a traced repeat of each workload
// that adds per-layer probe numbers and a benchmark-side span trace. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	// trace selects what the result line carries: 0 the end-to-end metrics,
	// 1 the per-layer metrics (and runs the probes), -1 both.
	trace      int
	skipTraced bool
	tiny       bool
	outDir     string
	// probeCalls / probeBudget bound each probe: it stops at whichever comes
	// first.
	probeCalls  int
	probeBudget time.Duration
}

// runRecord is one workload's results as stored in results.json.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	RoundsAttempted int      `json:"rounds_attempted"`
	RoundsFailed    int      `json:"rounds_failed"`
	Correct         bool     `json:"correct"`
	GateMisses      []string `json:"gate_misses,omitempty"`
	Checksum        string   `json:"params_checksum"`

	EndToEnd  map[string]metricValue `json:"end_to_end"`
	SeedBound map[string]metricValue `json:"end_to_end_seed_bound"`
	RoundWall summary                `json:"round_wall_s"`
	Rounds    []roundRec             `json:"rounds"` // the untraced run, warm-up round first
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Estimate  []estimateRow          `json:"round_estimate,omitempty"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r runRecord) resultLine(trace int) resultLine {
	line := resultLine{Correct: r.Correct, Attempted: r.RoundsAttempted, Failed: r.RoundsFailed, Metrics: map[string]metricValue{}}
	if trace != 1 {
		for k, v := range r.EndToEnd {
			line.Metrics[k] = v
		}
	}
	if trace < 0 {
		for k, v := range r.SeedBound {
			line.Metrics[k] = v
		}
	}
	if trace != 0 {
		for k, v := range r.PerLayer {
			line.Metrics[k] = v
		}
	}
	return line
}

// gitCommit names the measured commit, or "unknown" when the checkout is not
// a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sharedProbeRun is the part of the probes that does not depend on the
// workload, measured once per invocation. nil means the probes are off.
type sharedProbeRun struct {
	busy  map[string]float64
	spans []span
	err   error
}

func runSharedProbes(cfg runConfig) *sharedProbeRun {
	spans := &spanList{workload: "shared"}
	p := &prober{minCalls: cfg.probeCalls, budget: cfg.probeBudget, spans: spans}
	p.parent = spans.begin("probes:shared", -1)
	busy, err := sharedProbes(p, cfg.seed, cfg.tiny)
	spans.end(p.parent)
	return &sharedProbeRun{busy: busy, spans: spans.spans, err: err}
}

// runWorkload runs one workload end to end — untraced child, traced child,
// probes — checks the correctness gates and prints every metric by name and
// unit.
func runWorkload(w workload, cfg runConfig, shared *sharedProbeRun, out io.Writer) runRecord {
	rounds := w.rounds(cfg.seconds)
	rec := runRecord{
		Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds,
		Commit: gitCommit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: childProcs(),
		Correct: true,
	}
	miss := func(format string, args ...any) {
		rec.Correct = false
		rec.GateMisses = append(rec.GateMisses, fmt.Sprintf(format, args...))
	}
	fmt.Fprintf(out, "== %s  seed=%d rounds=1+%d nproc=%d gomaxprocs=%d %s commit=%s\n",
		w.Name, cfg.seed, rounds, rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Commit)

	// Operations are rounds. A child that dies fails every round it did not
	// report; a skipped round fails.
	var setups []float64
	child := func(spec childSpec) *childResult {
		planned := 1 + spec.Rounds
		rec.RoundsAttempted += planned
		res, err := spawnChild(spec)
		if err != nil {
			rec.RoundsFailed += planned
			miss("%v", err)
			return nil
		}
		rec.RoundsFailed += planned - len(res.Rounds)
		for _, r := range res.Rounds {
			if r.Skipped {
				rec.RoundsFailed++
			}
		}
		if len(res.Rounds) != planned {
			miss("child reported %d of %d rounds", len(res.Rounds), planned)
			return nil
		}
		setups = append(setups, res.SetupS)
		return res
	}
	spec := childSpec{Workload: w.Name, Seed: cfg.seed, Rounds: rounds, Tiny: cfg.tiny}
	untraced := child(spec)
	var traced *childResult
	if !cfg.skipTraced {
		spec.Traced = true
		traced = child(spec)
	}
	if untraced == nil || (traced == nil && !cfg.skipTraced) {
		return rec
	}

	rec.Checksum, rec.Rounds = untraced.Checksum, untraced.Rounds
	opts := w.options(cfg.seed, cfg.tiny)
	rec.EndToEnd, rec.SeedBound, rec.RoundWall = endToEnd(w, opts.BatchSize, untraced, traced, setups)
	if _, reached := crossing(untraced.Rounds, w.Target); !reached {
		// Every measured round missed the goal.
		rec.RoundsFailed += rounds
		miss("wall_to_target_s, sim_time_to_target_s: accuracy never reached the target %.2f", w.Target)
	}
	if acc := rec.SeedBound["final_accuracy"].Value; acc < w.Floor {
		miss("final_accuracy %.4f is below the floor %.2f", acc, w.Floor)
	}
	for _, d := range endToEndDefs {
		m, ok := rec.EndToEnd[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "  bound to the seed (target accuracy %.2f, floor %.2f):\n", w.Target, w.Floor)
	for _, d := range seedBoundDefs {
		m := rec.SeedBound[d.Name]
		fmt.Fprintf(out, "  %-32s %14.4f %s", d.Name, m.Value, m.Unit)
		if d.Name == "round_wall_s" {
			s := rec.RoundWall
			fmt.Fprintf(out, "   (n=%d min=%.4f q1=%.4f q3=%.4f max=%.4f)", s.N, s.Min, s.Q1, s.Q3, s.Max)
		}
		fmt.Fprintln(out)
	}
	if traced == nil {
		return rec
	}

	if traced.Checksum != untraced.Checksum {
		miss("ParamsChecksum differs between the untraced run (%s) and the traced run (%s)", untraced.Checksum, traced.Checksum)
	}
	spans := &spanList{workload: w.Name}
	root := spans.begin("workload:"+w.Name, -1)
	spans.adopt(traced.Spans, root)
	var busy map[string]float64
	if shared != nil {
		p := &prober{minCalls: cfg.probeCalls, budget: cfg.probeBudget, spans: spans}
		p.parent = spans.begin("probes", root)
		var err error
		if busy, err = workloadProbes(p, w, cfg.seed, cfg.tiny); err == nil {
			err = shared.err
		}
		spans.end(p.parent)
		spans.adopt(shared.spans, root)
		if err != nil {
			miss("probes: %v", err)
			busy = nil
		} else {
			for k, x := range shared.busy {
				busy[k] = x
			}
		}
	}
	spans.end(root)
	rec.PerLayer, rec.Estimate = perLayer(w, opts, untraced, traced, busy)

	// Layers a workload bypasses must read zero calls, and the layers it is
	// there to exercise must not: a change that silently switches eager
	// sends, fault injection or compression off fails here, whatever it does
	// to the timings. (Early stops are left out: a seed may have none in four
	// WRN rounds. At smoke-test size no count is large enough to rely on.)
	var bypassed, exercised []string
	if strings.HasPrefix(opts.Scheme, "fedca") {
		exercised = append(exercised, "core.eager_sends", "core.anchor_rounds")
	} else {
		bypassed = append(bypassed, "core.early_stops", "core.mean_stop_iter", "core.eager_sends", "core.retransmits", "core.anchor_rounds")
	}
	if opts.Chaos != "" {
		exercised = append(exercised, "chaos.dropouts")
	} else {
		bypassed = append(bypassed, "chaos.dropouts", "chaos.quarantined", "chaos.link_retries")
	}
	if opts.Compress != "" {
		exercised = append(exercised, "compress.calls_per_round")
	} else {
		bypassed = append(bypassed, "compress.calls_per_round")
	}
	for _, name := range bypassed {
		if v := rec.PerLayer[name].Value; v != 0 {
			miss("%s = %v on a workload that bypasses the layer", name, v)
		}
	}
	for _, name := range exercised {
		if v := rec.PerLayer[name].Value; v == 0 && !cfg.tiny {
			miss("%s = 0 on a workload that exercises the layer", name)
		}
	}

	if shared != nil {
		fmt.Fprintln(out, "  per-layer (probes at this workload's shapes, counts from the traced run):")
		for _, d := range perLayerDefs {
			if m, ok := rec.PerLayer[d.Name]; ok {
				fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.Name, m.Value, m.Unit)
			}
		}
		writeEstimate(out, rec.Estimate, rec.RoundWall.Median, untraced.TokenCap)
		spans.writeSelfTimes(out)
	}
	for _, set := range []map[string]metricValue{rec.EndToEnd, rec.SeedBound, rec.PerLayer} {
		for name, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				miss("%s is not a finite number", name)
				set[name] = metricValue{Value: -1, Unit: m.Unit} // keeps the result line valid JSON
			}
		}
	}
	if err := spans.writeChromeTrace(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
		miss("trace file: %v", err)
	}
	return rec
}

// resultsFile is what -out/results.json holds. Runs append to an existing
// file, so ten invocations into one -out directory make one set for
// -compare; use a fresh directory for a fresh set.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	return rf, json.Unmarshal(b, &rf)
}

func appendResults(dir string, recs []runRecord) error {
	path := filepath.Join(dir, "results.json")
	rf, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	rf.Runs = append(rf.Runs, recs...)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func parentMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var names stringList
	fs.Var(&names, "workload", "workload to run (repeatable; default: all four)")
	seed := fs.Uint64("seed", 42, "workload seed, the only source of workload randomness")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds each run is sized for; scales the round counts")
	trace := fs.Int("trace", -1, "result line carries 0: end-to-end metrics, 1: per-layer metrics (runs the probes), -1: both")
	outDir := fs.String("out", ".bench_out", "directory for results.json and trace-<workload>.json")
	skipTraced := fs.Bool("skip-traced", false, "skip the traced run and the probes (no upload_mb_per_round, no checksum gate)")
	compare := fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1), out)
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace one of -1, 0, 1, and no other arguments")
		return 2
	}
	var selected []workload
	for _, n := range names {
		w, ok := workloadByName(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace, skipTraced: *skipTraced, outDir: *outDir,
		probeCalls: 200, probeBudget: 500 * time.Millisecond,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The probes run in this process, on one core: in a saturated round every
	// worker holds one CPU token, so no layer fans out, and a busy number is
	// the CPU cost of a call.
	runtime.GOMAXPROCS(1)
	var shared *sharedProbeRun
	if cfg.trace != 0 && !cfg.skipTraced {
		shared = runSharedProbes(cfg)
	}

	var recs []runRecord
	code := 0
	for _, w := range selected {
		rec := runWorkload(w, cfg, shared, out)
		for _, m := range rec.GateMisses {
			fmt.Fprintf(out, "  GATE MISS: %s\n", m)
		}
		recs = append(recs, rec)
		if !rec.Correct {
			code = 1
		}
	}
	if err := appendResults(cfg.outDir, recs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	// One result line per workload; the last line of output is always one.
	for _, rec := range recs {
		b, err := json.Marshal(rec.resultLine(cfg.trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", b)
	}
	return code
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}
