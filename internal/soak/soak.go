package soak

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sync"

	"fedca"
	"fedca/internal/cputok"
	"fedca/internal/rng"
	"fedca/internal/runlog"
	"fedca/internal/telemetry"
)

// Config configures a soak run. The zero value is not valid; every field
// left zero takes the documented default in New.
type Config struct {
	// Schedule is the rotating phase schedule spec ("" = DefaultSchedule).
	Schedule string
	// Rounds is the total round budget across all phases (default 2000).
	// The last phase is truncated to fit exactly.
	Rounds int
	// Seed drives the whole soak: phase seeds fork from it, so equal
	// (Seed, Schedule, Rounds) reproduce the entire run.
	Seed uint64
	// Base is the phase every schedule entry resolves against; its zero
	// fields default to 50 rounds and bands 0:0.75, 0:0.75 and 0:1e6.
	Base Phase
	// Run is the run every schedule entry's run keys apply onto (zero value
	// = DefaultRun()); each phase replaces its Seed with the phase's own,
	// derived from Config.Seed, and its observers with the soak's.
	Run fedca.Options
	// CheckEvery is the monitor sampling cadence in rounds (default 10).
	CheckEvery int
	// RecheckEvery selects phases for the serial determinism recheck: every
	// phase whose global ordinal is a multiple of it re-runs serially with
	// telemetry flipped and must fingerprint identically. Default 4; -1
	// disables rechecks.
	RecheckEvery int
	// Telemetry, when non-nil, receives every phase's live metrics plus the
	// fedca_soak_* metric set, and feeds the HTTP introspection surface.
	Telemetry *fedca.Telemetry
	// Journal, when non-nil, records the whole soak's flight-recorder events:
	// every phase's rounds and degradation incidents, phase transitions,
	// CPU-token cap changes (the serial rechecks pin the cap) and monitor
	// violations. Each violation's report entry additionally carries the
	// journal's last events at detection time, so a nightly drift report
	// alone explains the flagged phase. Feeds /events and /clients on the
	// HTTP surface.
	Journal *fedca.Journal
	// EventWriter, when non-nil alongside Journal, streams the journal to it
	// as JSON lines: the runner drains new events at every phase boundary and
	// at the end of the run, so the on-disk stream is complete even though
	// the in-memory ring only retains the newest events (its capacity).
	EventWriter io.Writer
	// Log, when non-nil, receives the whole soak as one continuous run log:
	// a phase marker before each phase, then its rounds with globally
	// monotonic round indices.
	Log *runlog.Writer
}

// Status is the soak runner's live progress, served by the /status endpoint
// while Run executes.
type Status struct {
	Running     bool   `json:"running"`
	Round       int    `json:"round"`
	TotalRounds int    `json:"total_rounds"`
	Phase       int    `json:"phase"`
	PhaseName   string `json:"phase_name"`
	Cycle       int    `json:"cycle"`
	Violations  int    `json:"violations"`
	// Federation is the running phase's live snapshot (the last completed
	// phase's final snapshot between phases).
	Federation fedca.Snapshot `json:"federation"`
}

// Runner executes one soak run. Build with New; Run may be called once.
// Status is safe to poll from other goroutines while Run executes.
type Runner struct {
	cfg      Config
	schedule []Phase         // resolved against Config.Base
	runs     []fedca.Options // schedule[i]'s run, before its seed
	monitors []monitor
	recheck  *determinismMonitor // nil when rechecks are disabled
	soakTel  *telemetry.SoakMetrics

	mu     sync.Mutex
	cur    *fedca.Federation // running phase's federation, nil between phases
	status Status

	// drainedSeq is the last journal sequence number streamed to
	// Config.EventWriter; only the soak goroutine touches it.
	drainedSeq uint64
}

// violationEventTail is how many of the newest journal events each violation's
// report entry carries — the causal window just before the breach.
const violationEventTail = 32

// New validates the configuration, resolves the schedule and assembles the
// monitor set.
func New(cfg Config) (*Runner, error) {
	if cfg.Schedule == "" {
		cfg.Schedule = DefaultSchedule
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 2000
	}
	if cfg.Rounds < 1 || cfg.Rounds > maxRounds {
		return nil, fmt.Errorf("soak: Rounds %d outside [1,%d]", cfg.Rounds, maxRounds)
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 10
	}
	if cfg.RecheckEvery == 0 {
		cfg.RecheckEvery = 4
	}
	if cfg.Run == (fedca.Options{}) {
		cfg.Run = DefaultRun()
	}
	base := cfg.Base.Resolve(defaultBase())
	if err := base.validateResolved(); err != nil {
		return nil, fmt.Errorf("soak: base: %w", err)
	}
	schedule, err := ParseSchedule(cfg.Schedule)
	if err != nil {
		return nil, err
	}
	runs := make([]fedca.Options, len(schedule))
	for i, p := range schedule {
		// Parsed keys are in bounds and base is valid, so is the result.
		schedule[i] = p.Resolve(base)
		if runs[i], err = p.options(cfg.Run); err != nil {
			return nil, err
		}
	}
	r := &Runner{
		cfg:      cfg,
		schedule: schedule,
		runs:     runs,
		soakTel:  telemetry.NewSoakMetrics(cfg.Telemetry.Registry()),
		status:   Status{TotalRounds: cfg.Rounds},
	}
	r.monitors = append(r.monitors,
		&tokenMonitor{},
		ratesMonitor{},
		&heapMonitor{},
	)
	if cfg.RecheckEvery > 0 {
		r.recheck = &determinismMonitor{
			every:   cfg.RecheckEvery,
			liveTel: cfg.Telemetry != nil,
			tel:     r.soakTel,
		}
		r.monitors = append(r.monitors, r.recheck)
	}
	return r, nil
}

// Status snapshots the runner's live progress; safe to call from any
// goroutine while Run executes (the /status endpoint does).
func (r *Runner) Status() Status {
	r.mu.Lock()
	st := r.status
	cur := r.cur
	r.mu.Unlock()
	if cur != nil {
		st.Federation = cur.Snapshot()
	}
	return st
}

// Run executes the soak: phases rotate through the schedule until the round
// budget is spent, monitors sample every CheckEvery rounds and evaluate
// each finished phase, and the outcome lands in a Report. The error return
// covers setup failures only (an unknown scheme in a phase, say); invariant
// violations never abort the run — they are the report's payload.
func (r *Runner) Run() (*Report, error) {
	cfg := r.cfg
	rep := &Report{
		Schedule:     cfg.Schedule,
		Seed:         cfg.Seed,
		CheckEvery:   cfg.CheckEvery,
		RecheckEvery: cfg.RecheckEvery,
	}
	budget := cputok.Default()
	budget.ResetMax()
	r.setRunning(true)
	defer r.setRunning(false)

	// Journal CPU-token cap changes for the run's duration (the serial
	// rechecks pin the cap to 1 and restore it); the previous hook — usually
	// none — comes back when the soak ends.
	if j := cfg.Journal; j != nil {
		prev := budget.SetCapHook(j.CapChange)
		defer budget.SetCapHook(prev)
	}

	record := func(vs []Violation) {
		if len(vs) == 0 {
			return
		}
		// Each violation carries the journal's newest events at detection
		// time — the causal window — then marks itself in the journal so
		// later violations' windows show earlier ones.
		for i := range vs {
			vs[i].Events = cfg.Journal.Tail(violationEventTail)
			cfg.Journal.Violation(vs[i].Monitor, vs[i].Phase, vs[i].Round, vs[i].Detail)
		}
		rep.Violations = append(rep.Violations, vs...)
		r.soakTel.Violation(len(vs))
		r.mu.Lock()
		r.status.Violations = len(rep.Violations)
		r.mu.Unlock()
	}

	globalRound := 0
	for phaseIdx := 0; globalRound < cfg.Rounds; phaseIdx++ {
		p := r.schedule[phaseIdx%len(r.schedule)]
		if remaining := cfg.Rounds - globalRound; p.Rounds > remaining {
			p.Rounds = remaining
		}
		run := r.runs[phaseIdx%len(r.schedule)]
		run.Seed = rng.New(cfg.Seed).Fork("soak-phase", phaseIdx).Uint64()
		info := PhaseInfo{
			Index:      phaseIdx,
			Cycle:      phaseIdx / len(r.schedule),
			Name:       p.Name,
			Spec:       p.Spec(run),
			StartRound: globalRound,
			Rounds:     p.Rounds,
		}
		r.soakTel.PhaseStart(info.Index, info.Cycle, info.Rounds)
		cfg.Journal.PhaseStart(info.Index, info.Name, info.Spec)
		r.mu.Lock()
		r.status.Phase = info.Index
		r.status.PhaseName = info.Name
		r.status.Cycle = info.Cycle
		r.mu.Unlock()
		if cfg.Log != nil {
			if err := cfg.Log.WritePhase(info); err != nil {
				return nil, err
			}
		}

		run.Telemetry, run.Journal = cfg.Telemetry, cfg.Journal
		res, err := r.runPhase(info, p, run, record)
		if err != nil {
			return nil, err
		}

		// Release the phase's federation before the boundary heap measure;
		// the cached snapshot keeps /status meaningful between phases.
		r.mu.Lock()
		r.status.Federation = r.cur.Snapshot()
		r.cur = nil
		r.mu.Unlock()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.HeapBytes = ms.HeapAlloc
		r.soakTel.PhaseDone(ms.HeapAlloc)

		cfg.Journal.PhaseEnd(info.Index, info.Name, res.Fingerprint)
		rep.Phases = append(rep.Phases, res)
		for _, m := range r.monitors {
			record(m.PhaseEnd(res))
		}
		r.drainEvents()
		globalRound += p.Rounds
	}

	r.drainEvents()
	rep.Rounds = globalRound
	rep.TokenCap = budget.Cap()
	rep.MaxInflight = budget.MaxInflight()
	if r.recheck != nil {
		rep.Rechecks = r.recheck.runs
	}
	rep.Pass = len(rep.Violations) == 0
	return rep, nil
}

// runPhase plays one phase on the soak: live status, the run log and the
// monitors' samples follow its rounds (heap measure left to the caller).
func (r *Runner) runPhase(info PhaseInfo, p Phase, run fedca.Options, record func([]Violation)) (PhaseResult, error) {
	return playPhase(info, p, run, func(fed *fedca.Federation, rd fedca.Round) {
		globalRound := info.StartRound + rd.Index + 1
		r.soakTel.RoundDone()
		r.mu.Lock()
		r.cur = fed
		r.status.Round = globalRound
		r.mu.Unlock()
		if r.cfg.Log != nil {
			rd.Index = globalRound - 1
			// Log-write errors surface at Close; the soak must not abort
			// mid-phase over a full disk.
			_ = r.cfg.Log.WriteRound(rd)
		}
		if globalRound%r.cfg.CheckEvery == 0 {
			s := sample{Round: globalRound, Phase: info, Snapshot: fed.Snapshot()}
			for _, m := range r.monitors {
				record(m.Sample(s))
			}
		}
	})
}

// playPhase builds run's federation, plays the phase's rounds, handing each
// to observe once it is in the fingerprint, and assembles the phase outcome
// from the federation's degradation counters.
func playPhase(info PhaseInfo, p Phase, run fedca.Options, observe func(*fedca.Federation, fedca.Round)) (PhaseResult, error) {
	fed, err := fedca.New(run)
	if err != nil {
		return PhaseResult{}, fmt.Errorf("soak: phase %d (%s): %w", info.Index, info.Name, err)
	}
	h := sha256.New()
	collected := 0
	fed.OnRound(func(rd fedca.Round) {
		hashRound(h, rd)
		collected += rd.Collected
		observe(fed, rd)
	})
	rounds := fed.Run(p.Rounds)
	st := fed.DegradationStats()
	return PhaseResult{
		PhaseInfo: info,
		Bands: BandSet{
			Skip:       p.SkipBand,
			Quarantine: p.QuarBand,
			Retry:      p.RetryBand,
		},
		Fingerprint:   hex.EncodeToString(h.Sum(nil)),
		FinalAccuracy: rounds[len(rounds)-1].Accuracy,
		SkippedRounds: st.SkippedRounds,
		Quarantined:   st.Quarantined,
		DroppedRounds: st.DroppedRounds,
		LinkRetries:   st.LinkRetries,
		Collected:     collected,
	}, nil
}

// hashRound folds one round's record, in its run-log JSON encoding, into
// the phase fingerprint. encoding/json renders float64 in shortest
// round-trip form, so equal bytes <=> bit-identical round records, and the
// record's params field makes that bit-identical global models.
func hashRound(h hash.Hash, rd fedca.Round) {
	b, err := json.Marshal(rd)
	if err != nil {
		panic(fmt.Sprintf("soak: marshal round: %v", err))
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// RunPhase reproduces one phase standalone from its canonical spec string
// as a Report or run-log phase marker records it, and returns its outcome.
// Equal specs yield an identical Fingerprint at any CPU-token count, with or
// without telemetry: what the determinism monitor asserts, and what makes a
// violation's Spec a complete reproduction recipe.
func RunPhase(spec string, tel *fedca.Telemetry) (PhaseResult, error) {
	phases, err := ParseSchedule(spec)
	if err != nil {
		return PhaseResult{}, err
	}
	if len(phases) != 1 {
		return PhaseResult{}, fmt.Errorf("soak: RunPhase wants exactly one phase, spec has %d", len(phases))
	}
	p := phases[0].Resolve(defaultBase())
	run, err := p.options(DefaultRun())
	if err != nil {
		return PhaseResult{}, err
	}
	info := PhaseInfo{Name: p.Name, Spec: p.Spec(run), Rounds: p.Rounds}
	run.Telemetry = tel
	return playPhase(info, p, run, func(*fedca.Federation, fedca.Round) {})
}

// recheckPhase re-runs a completed phase on the serial reference path and
// returns its fingerprint for comparison: the process-wide CPU-token budget
// is pinned to one token, which the recheck holds while it runs, so every
// nested fan-out finds none free and runs inline; telemetry is flipped
// relative to the live run.
func recheckPhase(p PhaseResult, withTelemetry bool) (string, error) {
	budget := cputok.Default()
	saved := budget.Setting()
	budget.SetCap(1)
	defer budget.SetCap(saved)
	budget.Acquire()
	defer budget.Return(1)
	var tel *fedca.Telemetry
	if withTelemetry {
		tel = fedca.NewTelemetry()
	}
	out, err := RunPhase(p.Spec, tel)
	if err != nil {
		return "", fmt.Errorf("soak: recheck: %w", err)
	}
	return out.Fingerprint, nil
}

// drainEvents streams journal events newer than the last drain to the
// configured EventWriter as JSON lines. Called at phase boundaries, so the
// on-disk stream stays complete as long as a phase emits fewer events than
// the ring retains. Write errors are swallowed: event streaming is best
// effort and must not abort a soak.
func (r *Runner) drainEvents() {
	if w := r.cfg.EventWriter; w != nil {
		r.drainedSeq, _ = r.cfg.Journal.WriteSince(w, r.drainedSeq)
	}
}

func (r *Runner) setRunning(v bool) {
	r.mu.Lock()
	r.status.Running = v
	r.mu.Unlock()
}
