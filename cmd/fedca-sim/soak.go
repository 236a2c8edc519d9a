// The soak subcommand drives the long-horizon production soak harness
// (internal/soak) — thousands of rounds under a rotating, seeded chaos
// schedule with invariant monitors — and the repro subcommand replays one
// phase from a soak report, verifying the recorded fingerprint:
//
//	fedca-sim soak -rounds 300 -check 10 -recheck 2 -report soak-report.json
//	fedca-sim repro soak-report.json:1
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"fedca"
	"fedca/internal/runlog"
	"fedca/internal/soak"
	"fedca/introspect"
)

// runSoak executes the soak and exits: 0 when every invariant held, 1 on
// monitor violations (the report names them), 2 on setup errors, a flag the
// soak does not take included.
func runSoak(args []string) {
	fs := flag.NewFlagSet("fedca-sim soak", flag.ExitOnError)
	// The flags write straight into the soak's base run; phases may still
	// override it with run keys in the schedule spec.
	cfg := soak.Config{Run: soak.DefaultRun()}
	fs.StringVar(&cfg.Run.Model, "model", cfg.Run.Model, "base workload: cnn | lstm | wrn")
	fs.StringVar(&cfg.Run.Scheme, "scheme", cfg.Run.Scheme, "base scheme: fedavg | fedprox | fedada | fedca | fedca-v1 | fedca-v2 | oort | safa")
	fs.IntVar(&cfg.Run.Clients, "clients", cfg.Run.Clients, "base client count")
	fs.Uint64Var(&cfg.Seed, "seed", 42, "master seed")
	fs.StringVar(&cfg.Schedule, "spec", "", "soak schedule spec (phases separated by '|'; empty = the built-in rotating chaos schedule)")
	fs.IntVar(&cfg.Rounds, "rounds", 2000, "total soak round budget across all phases")
	fs.IntVar(&cfg.CheckEvery, "check", 10, "evaluate invariant monitors every N rounds")
	fs.IntVar(&cfg.RecheckEvery, "recheck", 4, "serially re-run every Nth phase and assert a bit-identical fingerprint (-1 disables)")
	report := fs.String("report", "", "write the soak's JSON report to this path")
	logPath := fs.String("log", "", "write a phase-marked JSON-lines run log to this path")
	eventsPath := fs.String("events", "", "stream the flight-recorder journal to this path as JSON lines")
	httpAddr := fs.String("http", "", "serve live introspection on this address (/metrics, /status, /events, /clients, /debug/pprof)")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fail(fmt.Errorf("soak: unexpected argument %q", fs.Arg(0)))
	}
	if *httpAddr != "" {
		cfg.Telemetry = fedca.NewTelemetry()
	}
	// The flight recorder is always on in soak mode: violations carry their
	// causal event window in the report, and /events serves it live.
	cfg.Journal = fedca.NewJournal(0)
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fedca-sim: events:", err)
			}
		}()
		cfg.EventWriter = f
	}
	if *logPath != "" {
		w, err := runlog.Create(*logPath)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := w.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fedca-sim: runlog:", err)
			}
		}()
		cfg.Log = w
	}
	r, err := soak.New(cfg)
	if err != nil {
		fail(err)
	}
	if *httpAddr != "" {
		mux := introspect.NewMux(cfg.Telemetry, cfg.Journal, func() any { return r.Status() })
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "fedca-sim: http:", err)
			}
		}()
		fmt.Printf("telemetry: serving /metrics, /status, /events, /clients and /debug/pprof on %s\n", *httpAddr)
	}
	schedule := cfg.Schedule
	if schedule == "" {
		schedule = soak.DefaultSchedule
	}
	fmt.Printf("soak: %d rounds, seed %d, check every %d, recheck every %d phases\n",
		cfg.Rounds, cfg.Seed, cfg.CheckEvery, cfg.RecheckEvery)
	fmt.Printf("soak: schedule %s\n", schedule)

	rep, err := r.Run()
	if err != nil {
		fail(err)
	}
	for _, p := range rep.Phases {
		fmt.Printf("soak: phase %3d cycle %2d %-12s rounds %4d-%-4d acc %.4f skipped %d quarantined %d retries %d\n",
			p.Index, p.Cycle, p.Name, p.StartRound, p.StartRound+p.Rounds-1,
			p.FinalAccuracy, p.SkippedRounds, p.Quarantined, p.LinkRetries)
	}
	fmt.Printf("soak: rechecks=%d; tokens max-inflight=%d cap=%d\n",
		rep.Rechecks, rep.MaxInflight, rep.TokenCap)
	if *report != "" {
		if err := soak.WriteReport(*report, rep); err != nil {
			fail(err)
		}
		fmt.Printf("soak: report written to %s\n", *report)
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "soak: FAIL — %d violation(s):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  [%s] phase %d (%s) round %d: %s\n", v.Monitor, v.PhaseIndex, v.Phase, v.Round, v.Detail)
			if n := len(v.Events); n > 0 {
				fmt.Fprintf(os.Stderr, "    context: %d journal events captured (see the report's events field)\n", n)
			}
			fmt.Fprintf(os.Stderr, "    reproduce: fedca-sim repro REPORT.json:%d   (or soak.RunPhase of the violation's spec)\n", v.PhaseIndex)
		}
		os.Exit(1)
	}
	fmt.Printf("soak: PASS — %d rounds, %d phases, 0 violations\n", rep.Rounds, len(rep.Phases))
}

// runRepro replays the one phase named by its argument, REPORT.json:PHASE_INDEX,
// and verifies the re-run reproduces the recorded fingerprint bit-for-bit.
// Exits 0 on an identical reproduction, 1 on a fingerprint mismatch, 2 on
// setup errors (unreadable report, bad index, not exactly one argument).
func runRepro(args []string) {
	if len(args) != 1 {
		fail(fmt.Errorf("usage: fedca-sim repro REPORT.json:PHASE_INDEX"))
	}
	path, idxStr, ok := strings.Cut(args[0], ":")
	if !ok {
		fail(fmt.Errorf("repro wants REPORT.json:PHASE_INDEX, got %q", args[0]))
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		fail(fmt.Errorf("repro phase index %q: %v", idxStr, err))
	}
	rep, err := soak.ReadReport(path)
	if err != nil {
		fail(err)
	}
	var phase *soak.PhaseResult
	for i := range rep.Phases {
		if rep.Phases[i].Index == idx {
			phase = &rep.Phases[i]
			break
		}
	}
	if phase == nil {
		fail(fmt.Errorf("report %s has no phase with index %d (%d phases)", path, idx, len(rep.Phases)))
	}
	fmt.Printf("repro: phase %d (%s)\n", phase.Index, phase.Name)
	fmt.Printf("repro: spec %s\n", phase.Spec)
	got, err := soak.RunPhase(phase.Spec, nil)
	if err != nil {
		fail(err)
	}
	if got.Fingerprint != phase.Fingerprint {
		fmt.Fprintf(os.Stderr, "repro: FAIL — fingerprint %s != recorded %s\n", got.Fingerprint, phase.Fingerprint)
		os.Exit(1)
	}
	fmt.Printf("repro: PASS — fingerprint %s reproduced bit-identically\n", got.Fingerprint)
}
