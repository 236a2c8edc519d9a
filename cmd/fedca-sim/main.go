// fedca-sim runs one federated-learning simulation — one workload under one
// scheme — and prints a per-round log (virtual time, accuracy, iterations,
// eager-transmission activity).
//
// Usage:
//
//	fedca-sim -model cnn -scheme fedca -clients 32 -rounds 50
//	fedca-sim -model wrn -scheme fedavg -scale tiny -seed 7
//	fedca-sim -scheme fedavg -compress qsgd7 -log run.jsonl
//	fedca-sim -spec 'model=lstm;scheme=fedavg;clients=8;seed=3' -rounds 20
//	fedca-sim -scheme fedca -http :8080 -trace run-trace.json
//	fedca-sim replay run.jsonl
//	fedca-sim soak -rounds 300 -report soak-report.json
//	fedca-sim repro soak-report.json:1
//
// The run is one expcfg.Options value: the -scale's base run with each run
// flag applied as the spec key of its name. -spec gives it as text instead
// (the form a -log header records, over the flags' defaults). With
// -http the run serves live introspection while it executes: /metrics
// (Prometheus text format), /status (current round, runner and scheme stats
// as JSON) and /debug/pprof. With -trace it writes the whole run as Chrome
// trace-event JSON keyed on virtual sim time — open it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// replay re-runs a -log file from its header and compares every round; soak
// and repro (soak.go) take their own flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"

	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/experiments"
	"fedca/internal/fl"
	"fedca/internal/runlog"
	"fedca/internal/telemetry"
	"fedca/introspect"
)

// notRunFlags are the flags that do not describe the run: -spec replaces
// every other one, and every other one but -scale is a spec key.
var notRunFlags = map[string]bool{"spec": true, "rounds": true, "log": true, "events": true, "http": true, "trace": true}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "soak":
			runSoak(os.Args[2:])
			return
		case "repro":
			runRepro(os.Args[2:])
			return
		case "replay":
			runReplay(os.Args[2:])
			return
		}
	}
	flag.String("model", "cnn", "workload: cnn | lstm | wrn")
	flag.String("scheme", "fedca", "scheme: fedavg | fedprox | fedada | fedca | fedca-v1 | fedca-v2 | oort | safa")
	scaleName := flag.String("scale", "small", "experiment scale: tiny | small | full")
	flag.Int("clients", 0, "override client count (0 = the scale's)")
	flag.Int("fleet", 0, "virtualize the population at this size: only each round's cohort is materialized (O(cohort) memory), client state derives from (seed, id)")
	flag.Float64("participation", 0, "fraction of the population that trains each round (0 or 1 = everyone; below 1 the cohort is picked by a selecting scheme such as oort, else sampled by -fleet)")
	flag.Float64("aggfrac", 0, "override the workload's partial-aggregation cut in (0,1]; updates fold as soon as the cut has decided them, at once when it takes the whole cohort")
	rounds := flag.Int("rounds", 0, "override round count")
	flag.Uint64("seed", 42, "master seed")
	flag.String("dtype", "f64", "client training precision: f64 (bit-reproducible default) | f32 (float32 workers; master weights and aggregation stay float64)")
	flag.String("compress", "none", "upload compressor: none | qsgd<levels> | topk<percent>")
	flag.String("chaos", "none", `fault-injection spec (drop=p is client dropout), e.g. "drop=0.1,slow=0.3,degrade=0.2,outage=0.05,xfail=0.02,corrupt=0.01" (deterministic per seed)`)
	flag.Int("quorum", 0, "minimum valid updates to aggregate a round (0 = 1); thinner rounds are skipped, not fatal")
	flag.Float64("maxnorm", 0, "absolute cap on the update-norm bound (0 = only the bound derived from the model's norm)")
	spec := flag.String("spec", "", "the run as one spec string, key=value;… (the form a -log header records), applied over the run flags' defaults; excludes every run flag")
	logPath := flag.String("log", "", "write a JSON-lines run log to this path")
	eventsPath := flag.String("events", "", "stream the flight-recorder journal to this path as JSON lines")
	httpAddr := flag.String("http", "", "serve live introspection on this address (/metrics, /status, /events, /clients, /healthz, /debug/pprof)")
	tracePath := flag.String("trace", "", "write the run as Chrome trace-event JSON to this path (open in Perfetto)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fedca-sim [flags] | fedca-sim replay LOG.jsonl | fedca-sim soak [flags] | fedca-sim repro REPORT.json:N\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q (subcommands come first: fedca-sim replay | soak | repro)", flag.Arg(0)))
	}

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fail(err)
	}
	if *rounds > 0 {
		scale.Rounds = *rounds
	}
	// The run starts from the scale's base run. Every run flag is the spec
	// key of its name and applies over it, except a number left 0, which
	// keeps the base's value (-clients 0 is the scale's population).
	o := scale.Base
	flag.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); !notRunFlags[f.Name] && f.Name != "scale" && v != "0" {
			if err := o.Set(f.Name + "=" + v); err != nil {
				fail(fmt.Errorf("-%s: %w", f.Name, err))
			}
		}
	})
	if *spec != "" {
		flag.Visit(func(f *flag.Flag) {
			if !notRunFlags[f.Name] {
				fail(fmt.Errorf("-spec replaces the run flags; -%s given too", f.Name))
			}
		})
		if err := o.Set(*spec); err != nil {
			fail(err)
		}
	}

	// Telemetry: one sink feeds both the HTTP surface and the trace export.
	// It is deterministically inert, so attaching it never changes the run.
	if *httpAddr != "" || *tracePath != "" {
		o.Telemetry = telemetry.New()
	}
	// Flight recorder: feeds /events and /clients, and streams to -events.
	// Like the sink it is observational only.
	if *httpAddr != "" || *eventsPath != "" {
		o.Journal = telemetry.NewJournal(0)
	}

	runner, err := o.NewRun()
	if err != nil {
		fail(err)
	}
	cfg := &runner.Cfg
	_, fedca := runner.Scheme.(*core.Scheme)
	compName := "none"
	if cfg.Compressor != nil {
		compName = cfg.Compressor.Name()
	}
	popClients := o.Clients
	if o.Fleet > 0 {
		popClients = o.Fleet
		cohort := o.Fleet // the runner's cohort size, for the banner
		if p := cfg.Participation; p > 0 && p < 1 {
			cohort = max(1, int(p*float64(o.Fleet)+0.5))
		}
		fmt.Printf("fleet: %d virtual clients, participation=%g (cohort ≈ %d), lazy cohort materialization\n",
			o.Fleet, cfg.Participation, cohort)
	}
	if *httpAddr != "" {
		mux := introspect.NewMux(o.Telemetry, o.Journal, statusFunc(runner, o.Telemetry))
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "fedca-sim: http:", err)
			}
		}()
		fmt.Printf("telemetry: serving /metrics, /status, /events, /clients and /debug/pprof on %s\n", *httpAddr)
	}
	var eventsFile *os.File
	var eventsSeq uint64
	if *eventsPath != "" {
		eventsFile, err = os.Create(*eventsPath)
		if err != nil {
			fail(err)
		}
		defer eventsFile.Close()
	}
	var logw *runlog.Writer
	if *logPath != "" {
		logw, err = runlog.Create(*logPath)
		if err != nil {
			fail(err)
		}
		defer logw.Close()
		if err := logw.WriteHeader(runlog.Header{Spec: o.String()}); err != nil {
			fail(err)
		}
	}
	fmt.Printf("model=%s scheme=%s clients=%d K=%d rounds=%d seed=%d compress=%s\n",
		o.Model, o.Scheme, popClients, cfg.LocalIters, scale.Rounds, o.Seed, compName)
	fmt.Printf("%5s %12s %10s %8s %8s %7s %7s\n", "round", "vtime(s)", "dur(s)", "acc", "iters", "eager", "retr")
	// This goroutine drives every round: cover it with a CPU token, as an
	// execpool cell's admission would.
	budget := cputok.Default()
	defer budget.Return(budget.Cover())
	for i := 0; i < scale.Rounds; i++ {
		r := runner.RunRound()
		note := ""
		if r.Skipped {
			note = " SKIPPED"
		}
		if r.Quarantined > 0 {
			note += fmt.Sprintf(" quarantined=%d", r.Quarantined)
		}
		fmt.Printf("%5d %12.1f %10.1f %8.4f %8.1f %7.1f %7.1f%s\n",
			r.Index, r.End, r.Duration(), r.Accuracy, r.MeanIterations, r.EagerSent, r.Retransmitted, note)
		if logw != nil {
			if err := logw.WriteRound(r.RoundRecord); err != nil {
				fail(err)
			}
		}
		// Stream the journal incrementally: draining once per round keeps the
		// on-disk record complete even though the ring evicts old events.
		if eventsFile != nil {
			if eventsSeq, err = o.Journal.WriteSince(eventsFile, eventsSeq); err != nil {
				fail(err)
			}
		}
	}
	if eventsFile != nil {
		fmt.Printf("events: wrote the flight-recorder journal to %s (%d events)\n", *eventsPath, eventsSeq)
	}
	st := runner.Stats()
	if fedca {
		fmt.Printf("fedca: early-stops=%d full-rounds=%d eager=%d retransmissions=%d anchors=%d\n",
			st.EarlyStops, st.FullRounds, st.EagerSentTotal, st.RetransmitsTotal, st.AnchorRounds)
	}
	if cfg.Chaos != nil || cfg.MinQuorum > 0 || cfg.MaxDeltaNorm > 0 {
		fmt.Printf("degradation: skipped-rounds=%d quarantined=%d dropped-client-rounds=%d link-retries=%d\n",
			st.SkippedRounds, st.Quarantined, st.DroppedRounds, st.LinkRetries)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := o.Telemetry.Tracer().WriteChromeTrace(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace: wrote %d events to %s (open in https://ui.perfetto.dev)\n", o.Telemetry.Tracer().Len(), *tracePath)
	}
}

// runReplay re-runs a -log file from its header's spec, for as many rounds
// as it holds, and compares every round record. It exits 0 when all match,
// 1 at the first that differs (printing both records), 2 on setup errors.
func runReplay(args []string) {
	if len(args) != 1 {
		fail(fmt.Errorf("usage: fedca-sim replay LOG.jsonl"))
	}
	run, err := runlog.Open(args[0])
	if err != nil {
		fail(err)
	}
	if run.Header.Spec == "" {
		fail(fmt.Errorf("replay: %s has no header spec", args[0]))
	}
	var o expcfg.Options
	if err := o.Set(run.Header.Spec); err != nil {
		fail(err)
	}
	runner, err := o.NewRun()
	if err != nil {
		fail(err)
	}
	fmt.Printf("replay: %d rounds of %s\n", len(run.Rounds), o)
	budget := cputok.Default()
	defer budget.Return(budget.Cover())
	for i, want := range run.Rounds {
		if got := runner.RunRound().RoundRecord; got != want {
			logged, _ := json.Marshal(want)
			replayed, _ := json.Marshal(got)
			fmt.Fprintf(os.Stderr, "replay: FAIL — round %d differs\n  log:    %s\n  replay: %s\n", i, logged, replayed)
			os.Exit(1)
		}
	}
	fmt.Printf("replay: PASS — %d rounds reproduced bit-identically\n", len(run.Rounds))
}

// statusFunc builds the /status snapshot closure. Everything it touches is
// safe to read while RunRound executes on the main goroutine: the runner's
// tally and stage table snapshot under its lock, and the sink gauges are
// atomic.
func statusFunc(runner *fl.Runner, sink *telemetry.Sink) func() any {
	type status struct {
		Round       float64        `json:"round"`
		VirtualTime float64        `json:"virtual_time_seconds"`
		Accuracy    float64        `json:"accuracy"`
		Stats       fl.RunStats    `json:"stats"`
		Stages      []fl.StageTime `json:"stages"`
	}
	return func() any {
		return status{
			Round:       sink.Round.Value(),
			VirtualTime: sink.VirtualTime.Value(),
			Accuracy:    sink.Accuracy.Value(),
			Stats:       runner.Stats(),
			Stages:      runner.StageTimes(),
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fedca-sim:", err)
	os.Exit(2)
}
