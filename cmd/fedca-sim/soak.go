// Soak mode: fedca-sim -soak drives the long-horizon production soak harness
// (internal/soak) — thousands of rounds under a rotating, seeded chaos
// schedule with invariant monitors — and fedca-sim -soak-repro replays one
// phase from a soak report, verifying the recorded fingerprint.
package main

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"fedca"
	"fedca/internal/runlog"
	"fedca/internal/soak"
)

// soakCLI carries the flag values the soak mode consumes.
type soakCLI struct {
	spec       string
	rounds     int
	seed       uint64
	report     string
	check      int
	recheck    int
	model      string
	scheme     string
	clients    int
	logPath    string
	httpAddr   string
	eventsPath string
}

// runSoak executes the soak and exits: 0 when every invariant held, 1 on
// monitor violations (the report names them), 2 on setup errors.
func runSoak(cli soakCLI) {
	base := soak.DefaultBase()
	// The workload flags keep their usual meaning in soak mode; phases may
	// still override any of them in the schedule spec.
	base.Model = cli.model
	base.Scheme = cli.scheme
	if cli.clients > 0 {
		base.Clients = cli.clients
	}
	cfg := soak.Config{
		Schedule:     cli.spec,
		Rounds:       cli.rounds,
		Seed:         cli.seed,
		Base:         base,
		CheckEvery:   cli.check,
		RecheckEvery: cli.recheck,
	}
	if cli.httpAddr != "" {
		cfg.Telemetry = fedca.NewTelemetry()
	}
	// The flight recorder is always on in soak mode: violations carry their
	// causal event window in the report, and /events serves it live.
	cfg.Journal = fedca.NewJournal(0)
	if cli.eventsPath != "" {
		f, err := os.Create(cli.eventsPath)
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
	if cli.logPath != "" {
		w, err := runlog.Create(cli.logPath)
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
	if cli.httpAddr != "" {
		mux := r.NewMux()
		go func() {
			if err := http.ListenAndServe(cli.httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "fedca-sim: http:", err)
			}
		}()
		fmt.Printf("telemetry: serving /metrics, /status, /events, /clients and /debug/pprof on %s\n", cli.httpAddr)
	}
	schedule := cfg.Schedule
	if schedule == "" {
		schedule = soak.DefaultSchedule
	}
	fmt.Printf("soak: %d rounds, seed %d, check every %d, recheck every %d phases\n",
		cli.rounds, cli.seed, cli.check, cli.recheck)
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
	fmt.Printf("soak: rechecks computed=%d dedup-joins=%d; tokens max-inflight=%d cap=%d\n",
		rep.RecheckStats.Computed, rep.RecheckStats.DedupWaits, rep.MaxInflight, rep.TokenCap)
	if cli.report != "" {
		if err := soak.WriteReport(cli.report, rep); err != nil {
			fail(err)
		}
		fmt.Printf("soak: report written to %s\n", cli.report)
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "soak: FAIL — %d violation(s):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  [%s] phase %d (%s) round %d: %s\n", v.Monitor, v.PhaseIndex, v.Phase, v.Round, v.Detail)
			if n := len(v.Events); n > 0 {
				fmt.Fprintf(os.Stderr, "    context: %d journal events captured (see the report's events field)\n", n)
			}
			fmt.Fprintf(os.Stderr, "    reproduce: fedca-sim -soak-repro REPORT.json:%d   (or soak.RunPhase with seed %d)\n", v.PhaseIndex, v.Seed)
		}
		os.Exit(1)
	}
	fmt.Printf("soak: PASS — %d rounds, %d phases, 0 violations\n", rep.Rounds, len(rep.Phases))
}

// runSoakRepro replays one phase named by "REPORT.json:PHASE_INDEX" and
// verifies the re-run reproduces the recorded fingerprint bit-for-bit.
// Exits 0 on an identical reproduction, 1 on a fingerprint mismatch, 2 on
// setup errors (unreadable report, bad index).
func runSoakRepro(arg string) {
	path, idxStr, ok := strings.Cut(arg, ":")
	if !ok {
		fail(fmt.Errorf("-soak-repro wants REPORT.json:PHASE_INDEX, got %q", arg))
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		fail(fmt.Errorf("-soak-repro phase index %q: %v", idxStr, err))
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
	fmt.Printf("repro: phase %d (%s), seed %d\n", phase.Index, phase.Name, phase.Seed)
	fmt.Printf("repro: spec %s\n", phase.Spec)
	got, err := soak.RunPhase(phase.Spec, phase.Seed, nil)
	if err != nil {
		fail(err)
	}
	if got.Fingerprint != phase.Fingerprint {
		fmt.Fprintf(os.Stderr, "repro: FAIL — fingerprint %s != recorded %s\n", got.Fingerprint, phase.Fingerprint)
		os.Exit(1)
	}
	fmt.Printf("repro: PASS — fingerprint %s reproduced bit-identically (params %s)\n",
		got.Fingerprint, got.ParamsChecksum)
}
