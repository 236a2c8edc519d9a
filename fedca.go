package fedca

// This file is the public facade of the library: a downstream user assembles
// a simulated federation, picks a scheme by name, runs rounds and reads
// results without touching the internal packages.

import (
	"sync"

	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/metrics"
	"fedca/internal/telemetry"
)

// Telemetry is the live observability sink of a run: a metrics registry
// (Prometheus text format and JSON), a span tracer keyed on virtual sim time
// (Chrome trace-event export for Perfetto), and the building block of the
// HTTP introspection surface (package fedca/introspect). Telemetry is
// deterministically inert: attaching a sink never changes a run's results,
// timings or random draws.
type Telemetry = telemetry.Sink

// NewTelemetry builds an enabled telemetry sink to set as Options.Telemetry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// Journal is the flight recorder of a run: a fixed-capacity ring buffer of
// structured events (rounds, quarantines, dropouts, anchor aborts, chaos
// impairment windows, cell activity, soak transitions) with monotonic
// sequence numbers, plus a bounded per-client cost-attribution table. Like
// Telemetry it is deterministically inert: attaching a journal never changes
// a run's results, timings or random draws.
type Journal = telemetry.Journal

// Event is one journal entry.
type Event = telemetry.Event

// NewJournal builds a journal retaining exactly the newest capacity events,
// to set as Options.Journal (capacity <= 0 selects the default of 4096).
func NewJournal(capacity int) *Journal { return telemetry.NewJournal(capacity) }

// Options configures a Federation: the one description of a run, shared
// with fedca-sim, the soak and the run log's header, with one text form
// (Options.String, Options.Set; see README). The zero value is not valid;
// start from DefaultOptions.
type Options = expcfg.Options

// DefaultOptions returns a small but representative configuration: the CNN
// workload, 16 clients, FedCA with the paper's hyperparameters.
func DefaultOptions() Options {
	return Options{
		Model:         "cnn",
		Clients:       16,
		Scheme:        "fedca",
		Seed:          1,
		LocalIters:    50,
		BatchSize:     32,
		TrainSamples:  4096,
		TestSamples:   1024,
		Alpha:         0.1,
		Heterogeneous: true,
		Dynamic:       true,
		FedCA:         core.DefaultOptions(50),
	}
}

// Round is one completed communication round, as reported to library
// users: the runner's round record, the line fedca-sim -log writes for it.
type Round = fl.RoundRecord

// Federation is a ready-to-run simulated FL deployment.
type Federation struct {
	opts   Options
	runner *fl.Runner
	fedca  *core.Scheme
	// rounds holds one summary per completed round, not the round's result:
	// a result's cohort-sized update lists would otherwise stay live for the
	// whole run.
	rounds []Round

	// observers are invoked synchronously at the end of every RunRound, on
	// the driving goroutine (see OnRound).
	observers []func(Round)

	// lastMu guards lastRound so Snapshot can be polled from a monitoring
	// goroutine while RunRound executes on the driving one.
	lastMu    sync.Mutex
	lastRound Round
}

// New assembles a federation from options (Options.NewRun). A value
// outside the bounds of the options' text form is an error.
func New(opts Options) (*Federation, error) {
	runner, err := opts.NewRun()
	if err != nil {
		return nil, err
	}
	fedcaScheme, _ := runner.Scheme.(*core.Scheme)
	return &Federation{opts: opts, runner: runner, fedca: fedcaScheme}, nil
}

// RunRound executes one communication round. The calling goroutine drives
// it covered by a CPU token when one is free (cputok's Cover), so that the
// round's fan-outs borrow only tokens no running goroutine stands for.
func (f *Federation) RunRound() Round {
	budget := cputok.Default()
	defer budget.Return(budget.Cover())
	r := f.runner.RunRound().RoundRecord
	f.rounds = append(f.rounds, r)
	f.lastMu.Lock()
	f.lastRound = r
	f.lastMu.Unlock()
	for _, obs := range f.observers {
		obs(r)
	}
	return r
}

// OnRound registers an observer invoked synchronously at the end of every
// completed round, on the goroutine driving RunRound — the registration
// hook soak/invariant monitors use to watch a run without owning its loop.
// Observers run after the round is visible to Snapshot; they must not call
// RunRound re-entrantly.
func (f *Federation) OnRound(obs func(Round)) {
	f.observers = append(f.observers, obs)
}

// Run executes n rounds and returns them.
func (f *Federation) Run(n int) []Round {
	out := make([]Round, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, f.RunRound())
	}
	return out
}

// RunToAccuracy runs rounds until the global model reaches target accuracy
// or maxRounds elapse, and reports the Table 1-style summary.
func (f *Federation) RunToAccuracy(target float64, maxRounds int) Convergence {
	for i := 0; i < maxRounds; i++ {
		if r := f.RunRound(); r.Accuracy >= target {
			break
		}
	}
	c := metrics.ConvergenceOf(f.rounds, target)
	return Convergence{
		Reached:      c.Reached,
		Rounds:       c.Rounds,
		TotalSeconds: c.TotalTime,
		PerRound:     c.PerRoundTime,
		BestAccuracy: c.BestAcc,
	}
}

// Convergence is the time-to-accuracy summary of a run.
type Convergence struct {
	Reached      bool
	Rounds       int
	TotalSeconds float64
	PerRound     float64
	BestAccuracy float64
}

// Accuracy returns the global model's current test accuracy (NaN-free; 0
// before any round).
func (f *Federation) Accuracy() float64 {
	if len(f.rounds) == 0 {
		return 0
	}
	return f.rounds[len(f.rounds)-1].Accuracy
}

// Now returns the current virtual time in seconds.
func (f *Federation) Now() float64 { return f.runner.Now() }

// Journal returns the flight recorder attached at construction (nil when
// Options.Journal was nil).
func (f *Federation) Journal() *Journal { return f.opts.Journal }

// Events returns every retained journal event with sequence number > since,
// in ascending order (Events(0) returns the whole retained window; nil when
// no journal is attached). Safe to call from any goroutine, including while
// RunRound executes.
func (f *Federation) Events(since uint64) []Event { return f.opts.Journal.Since(since) }

// Rounds returns every completed round.
func (f *Federation) Rounds() []Round { return append([]Round(nil), f.rounds...) }

// FedCAStats exposes the run's tally for FedCA's behaviour (early stops,
// eager transmissions, retransmissions, by iteration in Fig. 8's form); ok
// is false for non-FedCA schemes. It returns the tally DegradationStats
// does: the runner's one fold of every client-round's record, which
// advances once per round, when the round is recorded.
//
// Both are safe to call from another goroutine while RunRound executes —
// e.g. a monitoring loop charting Fig. 8-style behaviour live — because the
// runner snapshots the tally under a lock. The rest of Federation's methods
// follow the usual rule: one goroutine drives rounds, no concurrent
// RunRound.
func (f *Federation) FedCAStats() (stats fl.RunStats, ok bool) {
	if f.fedca == nil {
		return fl.RunStats{}, false
	}
	return f.runner.Stats(), true
}

// DegradationStats exposes the run's tally for its graceful degradation —
// skipped rounds, quarantined updates, dropped client-rounds, link
// retransmissions — for every scheme.
func (f *Federation) DegradationStats() fl.RunStats { return f.runner.Stats() }

// ParamsChecksum returns the SHA-256 of the global model's parameter vector
// (8-byte little-endian IEEE 754 bits per coordinate), hex-encoded: the
// run's aggregate content address, which every round record carries as
// Round.Params. Two runs with equal checksums hold bit-identical global
// models. Call it between rounds: unlike Snapshot, it reads what RunRound
// writes.
func (f *Federation) ParamsChecksum() string { return f.runner.Params().String() }

// TokenSnapshot reports the process-wide CPU-token budget's state: the
// current capacity, tokens in flight, and the high-water mark of
// concurrently held tokens. MaxInflight <= Cap is one of the soak harness's
// invariants (the budget bounds the whole process's parallelism).
type TokenSnapshot struct {
	Cap      int `json:"cap"`
	Inflight int `json:"inflight"`
	Max      int `json:"max_inflight"`
}

// Snapshot is the live status of a federation, JSON-ready for an
// introspection endpoint.
type Snapshot struct {
	// Round is the number of completed rounds (including skipped ones).
	Round int `json:"round"`
	// VirtualTime is the end of the last completed round, in virtual seconds.
	VirtualTime float64 `json:"virtual_time_seconds"`
	// Accuracy is the global model's accuracy after the last aggregation.
	Accuracy float64 `json:"accuracy"`
	// Stats is the run's tally: degradation (skipped rounds, quarantines,
	// dropouts, uplink retries) and scheme behaviour (early stops, eager sends,
	// anchors) over the whole run.
	Stats fl.RunStats `json:"stats"`
	// Stages is the run's wall-clock stage table, one row per runner stage
	// in round order (plan, cohort, controllers, train, cut, aggregate,
	// recycle, evaluate, observe): where the simulator's time went. Unlike
	// everything above it, it differs between runs of one seed.
	Stages []fl.StageTime `json:"stages"`
	// Tokens mirrors the process-wide CPU-token budget (shared across all
	// federations, not per-run).
	Tokens TokenSnapshot `json:"tokens"`
}

// Snapshot reports the federation's current status. Unlike Rounds and
// Accuracy it is safe to call from a monitoring goroutine while RunRound
// executes — a live /status endpoint polls it (see introspect.NewMux).
func (f *Federation) Snapshot() Snapshot {
	f.lastMu.Lock()
	last := f.lastRound
	f.lastMu.Unlock()
	st := f.runner.Stats()
	budget := cputok.Default()
	return Snapshot{
		Round:       st.Rounds,
		VirtualTime: last.End,
		Accuracy:    last.Accuracy,
		Stats:       st,
		Stages:      f.runner.StageTimes(),
		Tokens: TokenSnapshot{
			Cap:      budget.Cap(),
			Inflight: budget.Inflight(),
			Max:      budget.MaxInflight(),
		},
	}
}
