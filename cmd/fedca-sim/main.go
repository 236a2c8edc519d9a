// fedca-sim runs one federated-learning simulation — one workload under one
// scheme — and prints a per-round log (virtual time, accuracy, iterations,
// eager-transmission activity).
//
// Usage:
//
//	fedca-sim -model cnn -scheme fedca -clients 32 -rounds 50
//	fedca-sim -model wrn -scheme fedavg -scale tiny -seed 7
//	fedca-sim -scheme fedavg -compress qsgd7 -log run.jsonl
//	fedca-sim -scheme fedca -http :8080 -trace run-trace.json
//	fedca-sim soak -rounds 300 -report soak-report.json
//	fedca-sim repro soak-report.json:1
//
// With -http the run serves live introspection while it executes: /metrics
// (Prometheus text format), /status (current round, runner and scheme stats
// as JSON) and /debug/pprof. With -trace it writes the whole run as Chrome
// trace-event JSON keyed on virtual sim time — open it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// The soak and repro subcommands (soak.go) take their own flags.
package main

import (
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
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "soak":
			runSoak(os.Args[2:])
			return
		case "repro":
			runRepro(os.Args[2:])
			return
		}
	}
	model := flag.String("model", "cnn", "workload: cnn | lstm | wrn")
	scheme := flag.String("scheme", "fedca", "scheme: fedavg | fedprox | fedada | fedca | fedca-v1 | fedca-v2 | oort | safa")
	scaleName := flag.String("scale", "small", "experiment scale: tiny | small | full")
	clients := flag.Int("clients", 0, "override client count")
	fleet := flag.Int("fleet", 0, "virtualize the population at this size: only each round's cohort is materialized (O(cohort) memory), client state derives from (seed, id)")
	participation := flag.Float64("participation", 0, "fraction of the population that trains each round (0 or 1 = everyone; below 1 the cohort is picked by a selecting scheme such as oort, else sampled by -fleet)")
	aggFrac := flag.Float64("aggfrac", 0, "override the workload's partial-aggregation cut in (0,1]; 1.0 enables the streaming online fold")
	rounds := flag.Int("rounds", 0, "override round count")
	seed := flag.Uint64("seed", 42, "master seed")
	dtype := flag.String("dtype", "f64", "client training precision: f64 (bit-reproducible default) | f32 (float32 workers; master weights and aggregation stay float64)")
	compressSpec := flag.String("compress", "none", "upload compressor: none | qsgd<levels> | topk<percent>")
	chaosSpec := flag.String("chaos", "none", `fault-injection spec (drop=p is client dropout), e.g. "drop=0.1,slow=0.3,degrade=0.2,outage=0.05,xfail=0.02,corrupt=0.01" (deterministic per seed)`)
	minQuorum := flag.Int("quorum", 0, "minimum valid updates to aggregate a round (0 = 1); thinner rounds are skipped, not fatal")
	maxNorm := flag.Float64("maxnorm", 0, "quarantine updates whose L2 norm exceeds this (0 = no bound)")
	logPath := flag.String("log", "", "write a JSON-lines run log to this path")
	eventsPath := flag.String("events", "", "stream the flight-recorder journal to this path as JSON lines")
	httpAddr := flag.String("http", "", "serve live introspection on this address (/metrics, /status, /events, /clients, /healthz, /debug/pprof)")
	tracePath := flag.String("trace", "", "write the run as Chrome trace-event JSON to this path (open in Perfetto)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: fedca-sim [flags] | fedca-sim soak [flags] | fedca-sim repro REPORT.json:N\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q (subcommands come first: fedca-sim soak | repro)", flag.Arg(0)))
	}

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fail(err)
	}
	if *clients > 0 {
		scale.Clients = *clients
	}
	if *rounds > 0 {
		scale.Rounds = *rounds
	}
	w, err := scale.Workload(*model)
	if err != nil {
		fail(err)
	}
	w.FL.DType = *dtype
	w.FL.MinQuorum = *minQuorum
	w.FL.MaxDeltaNorm = *maxNorm
	if *aggFrac > 0 {
		w.FL.AggregateFraction = *aggFrac
	}
	w.FL.Participation = *participation

	// Telemetry: one sink feeds both the HTTP surface and the trace export.
	// It is deterministically inert, so attaching it never changes the run.
	var sink *telemetry.Sink
	if *httpAddr != "" || *tracePath != "" {
		sink = telemetry.New()
		w.FL.Telemetry = sink
	}
	// Flight recorder: feeds /events and /clients, and streams to -events.
	// Like the sink it is observational only.
	var journal *telemetry.Journal
	if *httpAddr != "" || *eventsPath != "" {
		journal = telemetry.NewJournal(0)
		w.FL.Journal = journal
	}

	runner, err := expcfg.NewRun(w, expcfg.RunSpec{
		Scheme: *scheme, FedCA: scale.FedCAOptions(),
		Chaos: *chaosSpec, Compress: *compressSpec,
		Clients: scale.Clients, Fleet: *fleet,
		Trace: scale.TraceConfig(), Seed: *seed,
	})
	if err != nil {
		fail(err)
	}
	cfg := &runner.Cfg
	fedca, _ := runner.Scheme.(*core.Scheme)
	compName := "none"
	if cfg.Compressor != nil {
		compName = cfg.Compressor.Name()
	}
	popClients := scale.Clients
	if *fleet > 0 {
		popClients = *fleet
		cohort := *fleet // the runner's cohort size, for the banner
		if p := cfg.Participation; p > 0 && p < 1 {
			cohort = max(1, int(p*float64(*fleet)+0.5))
		}
		fmt.Printf("fleet: %d virtual clients, participation=%g (cohort ≈ %d), lazy cohort materialization\n",
			*fleet, cfg.Participation, cohort)
	}
	if *httpAddr != "" {
		mux := telemetry.NewMux(sink, journal, statusFunc(runner, fedca, sink))
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
		hdr := runlog.Header{
			Model: *model, Scheme: *scheme, Clients: scale.Clients,
			K: cfg.LocalIters, Seed: *seed, Alpha: w.Alpha,
			Quorum: cfg.MinQuorum, MaxNorm: cfg.MaxDeltaNorm,
		}
		if cfg.DType != "" && cfg.DType != "f64" {
			hdr.Dtype = cfg.DType
		}
		if cfg.Chaos != nil {
			hdr.Chaos = cfg.Chaos.Config().Spec()
		}
		if cfg.Compressor != nil {
			hdr.Compress = compName
		}
		if err := logw.WriteHeader(hdr); err != nil {
			fail(err)
		}
	}
	fmt.Printf("model=%s scheme=%s clients=%d K=%d rounds=%d seed=%d compress=%s\n",
		*model, *scheme, popClients, cfg.LocalIters, scale.Rounds, *seed, compName)
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
			r.Round, r.End, r.Duration(), r.Accuracy, r.MeanIterations, r.MeanEagerSent, r.MeanRetrans, note)
		if logw != nil {
			if err := logw.WriteRound(r); err != nil {
				fail(err)
			}
		}
		// Stream the journal incrementally: draining once per round keeps the
		// on-disk record complete even though the ring evicts old events.
		if eventsFile != nil {
			if eventsSeq, err = journal.WriteSince(eventsFile, eventsSeq); err != nil {
				fail(err)
			}
		}
	}
	if eventsFile != nil {
		fmt.Printf("events: wrote the flight-recorder journal to %s (%d events)\n", *eventsPath, eventsSeq)
	}
	if fedca != nil {
		st := runner.SchemeStats()
		fmt.Printf("fedca: early-stops=%d full-rounds=%d eager=%d retransmissions=%d anchors=%d\n",
			st.EarlyStops, st.FullRounds, st.EagerSentTotal, st.RetransmitsTotal, st.AnchorRounds)
	}
	if cfg.Chaos != nil || cfg.MinQuorum > 0 || cfg.MaxDeltaNorm > 0 {
		st := runner.Stats()
		fmt.Printf("degradation: skipped-rounds=%d quarantined=%d dropped-client-rounds=%d link-retries=%d\n",
			st.SkippedRounds, st.Quarantined, st.DroppedRounds, st.LinkRetries)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := sink.Tracer().WriteChromeTrace(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace: wrote %d events to %s (open in https://ui.perfetto.dev)\n", sink.Tracer().Len(), *tracePath)
	}
}

// statusFunc builds the /status snapshot closure. Everything it touches is
// safe to read while RunRound executes on the main goroutine: the runner's
// stats and scheme stats snapshot under its lock, and the sink gauges are
// atomic.
func statusFunc(runner *fl.Runner, fedca *core.Scheme, sink *telemetry.Sink) func() any {
	type status struct {
		Round       float64           `json:"round"`
		VirtualTime float64           `json:"virtual_time_seconds"`
		Accuracy    float64           `json:"accuracy"`
		Runner      fl.RunnerStats    `json:"runner"`
		FedCA       *core.SchemeStats `json:"fedca,omitempty"`
	}
	return func() any {
		st := status{
			Round:       sink.Round.Value(),
			VirtualTime: sink.VirtualTime.Value(),
			Accuracy:    sink.Accuracy.Value(),
			Runner:      runner.Stats(),
		}
		if fedca != nil {
			s := runner.SchemeStats()
			st.FedCA = &s
		}
		return st
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fedca-sim:", err)
	os.Exit(2)
}
