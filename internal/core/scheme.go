package core

import (
	"math"
	"slices"
	"sort"
	"sync"

	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/telemetry"
)

// Options are FedCA's hyperparameters (paper Sec. 5.1 defaults via
// DefaultOptions) and the ablation feature switches of Sec. 5.4:
// v1 = early stop only; v2 = + eager transmission, no retransmission;
// v3 = everything (the standard FedCA).
type Options struct {
	K int // default local iterations per round

	Beta float64 // marginal-cost ratio β before the deadline (0.01)
	Te   float64 // eager-transmission threshold T_e (0.95)
	Tr   float64 // retransmission threshold T_r (0.6)

	ProfilePeriod   int     // anchor round spacing (10)
	SampleCap       int     // per-layer sample cap (100)
	SampleFrac      float64 // per-layer sample fraction (0.5)
	MinIterations   int     // never early-stop before this many iterations (1)
	EarlyStop       bool
	Eager           bool
	Retransmit      bool
	DisableBenFloor bool // ablation: drop Eq. 2's lower bound

	// DeadlineQuantile switches the deadline rule (ablation): 0 uses the
	// paper's FedBalancer-style argmax(#finished/T); a value q in (0, 1]
	// instead sets T_R to the q-quantile of estimated client round times.
	DeadlineQuantile float64

	// AdaptiveLR enables the client-autonomous hyperparameter adjustment the
	// paper's Sec. 6 proposes as future work: once the anchor curve says the
	// client is deep in diminishing returns (P_{T,τ} ≥ LRDecayAt), the local
	// learning rate is halved for the rest of the round, trading step size
	// for noise reduction near the local optimum.
	AdaptiveLR bool
	// LRDecayAt is the progress level triggering the decay (default 0.9).
	LRDecayAt float64
}

// DefaultOptions returns the paper's standard FedCA (v3) configuration for a
// given K.
func DefaultOptions(k int) Options {
	return Options{
		K:             k,
		Beta:          0.01,
		Te:            0.95,
		Tr:            0.6,
		ProfilePeriod: 10,
		SampleCap:     DefaultSampleCap,
		SampleFrac:    DefaultSampleFrac,
		MinIterations: 1,
		EarlyStop:     true,
		Eager:         true,
		Retransmit:    true,
	}
}

// Scheme is the FedCA strategy: it plugs the profiler, the utility-guided
// early stop and eager transmission into the fl round loop. One Scheme value
// drives one training run; it owns per-client profilers that persist across
// rounds.
type Scheme struct {
	Opt Options

	r *rng.RNG

	// profilers is written by NewController (serial per the fl.Scheme
	// contract) but may be read through Profiler by other goroutines —
	// overhead tooling, monitors — while a round runs, hence the mutex.
	profMu    sync.Mutex
	profilers map[int]*Profiler
	rows      rowPool // the profilers' anchor-recording rows (see rowPool)

	// stats observed by controllers, for behavioural analyses (Fig. 8).
	// Controllers run concurrently with each other AND with callers polling
	// Stats mid-round, so every stats access — including the serial
	// NewController's AnchorRounds bump — must hold the mutex.
	statsMu sync.Mutex
	stats   SchemeStats

	// tel mirrors the behavioural stats into live telemetry counters.
	// Set once before the run (SetTelemetry); nil disables mirroring.
	tel *telemetry.Sink

	// journal receives flight-recorder events for scheme-level incidents
	// (anchor aborts). Set once before the run (SetJournal); nil disables.
	journal *telemetry.Journal
}

// SchemeStats aggregates FedCA's runtime behaviour over a run.
type SchemeStats struct {
	EarlyStopIters   []int `json:"early_stop_iters,omitempty"` // iteration at which each early stop fired
	FullRounds       int   `json:"full_rounds"`                // client-rounds that ran to the full budget
	EagerIters       []int `json:"eager_iters,omitempty"`      // iteration of each standing eager transmission
	RetransmitIters  []int `json:"retransmit_iters,omitempty"` // effective iteration of each retransmitted layer
	AnchorRounds     int   `json:"anchor_rounds"`              // client-rounds spent profiling
	EagerSentTotal   int   `json:"eager_sent_total"`
	RetransmitsTotal int   `json:"retransmits_total"`
	DroppedRounds    int   `json:"dropped_rounds"` // client-rounds lost to mid-round dropout
	AnchorAborts     int   `json:"anchor_aborts"`  // anchor recordings abandoned because the client dropped
}

// NewScheme builds a FedCA scheme. r seeds the per-client sampling choices.
func NewScheme(opt Options, r *rng.RNG) *Scheme {
	if opt.K <= 0 {
		panic("core: Options.K must be positive")
	}
	if opt.ProfilePeriod <= 0 {
		opt.ProfilePeriod = 10
	}
	if opt.MinIterations < 1 {
		opt.MinIterations = 1
	}
	return &Scheme{Opt: opt, r: r, profilers: make(map[int]*Profiler)}
}

// Name returns the scheme identifier, reflecting the ablation variant.
func (s *Scheme) Name() string {
	switch {
	case s.Opt.EarlyStop && s.Opt.Eager && s.Opt.Retransmit:
		return "fedca"
	case s.Opt.EarlyStop && s.Opt.Eager:
		return "fedca-v2"
	case s.Opt.EarlyStop:
		return "fedca-v1"
	default:
		return "fedca-custom"
	}
}

// SetTelemetry attaches a telemetry sink: scheme behaviour (early stops,
// eager transmissions, retransmissions, anchor activity) is mirrored into its
// counters as it happens. Call before the run starts; a nil sink is fine.
func (s *Scheme) SetTelemetry(t *telemetry.Sink) { s.tel = t }

// SetJournal attaches a flight-recorder journal: scheme-level incidents
// (anchor aborts) are recorded as structured events. Call before the run
// starts; a nil journal is fine.
func (s *Scheme) SetJournal(j *telemetry.Journal) { s.journal = j }

// Stats returns a snapshot of the accumulated behavioural statistics. It is
// safe to call from any goroutine, including while a round is executing.
// Controllers append to the iteration traces in the order their clients
// happen to finish, which depends on scheduling; the snapshot's copies are
// sorted, so equal runs report equal statistics. Every reader treats them as
// samples of a distribution (a count, a mean, a CDF), never as a sequence.
func (s *Scheme) Stats() SchemeStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	snap := s.stats
	snap.EarlyStopIters = sortedCopy(s.stats.EarlyStopIters)
	snap.EagerIters = sortedCopy(s.stats.EagerIters)
	snap.RetransmitIters = sortedCopy(s.stats.RetransmitIters)
	return snap
}

func sortedCopy(v []int) []int {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// Profiler returns (creating if needed) the persistent profiler of a client.
// Map access is locked so concurrent readers cannot corrupt it; the returned
// Profiler itself is only ever driven by one worker at a time (the fl
// contract serializes one client's hooks).
func (s *Scheme) Profiler(clientID int) *Profiler {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	p, ok := s.profilers[clientID]
	if !ok {
		p = NewProfiler(s.Opt.SampleCap, s.Opt.SampleFrac, s.r.Fork("profiler", clientID))
		p.rows = &s.rows
		s.profilers[clientID] = p
	}
	return p
}

// IsAnchorRound reports whether the given round profiles curves. Round 0 is
// always an anchor so curves exist from round 1 on.
func (s *Scheme) IsAnchorRound(round int) bool {
	return round%s.Opt.ProfilePeriod == 0
}

// PlanRound computes the round deadline T_R from server-side history
// (clients receive it with the round's parameters, as in the paper's
// implementation notes) — by default with the FedBalancer-style
// argmax(#finished/T) rule, or with a fixed quantile when the ablation knob
// DeadlineQuantile is set. FedCA sets no server-side iteration budgets: all
// workload decisions are the clients' own.
func (s *Scheme) PlanRound(round int, hist *fl.History) fl.RoundPlan {
	est := hist.EstRoundTimes(s.Opt.K)
	if q := s.Opt.DeadlineQuantile; q > 0 {
		return fl.RoundPlan{Deadline: quantileDeadline(est, q)}
	}
	return fl.RoundPlan{Deadline: fl.FedBalancerDeadline(est)}
}

// quantileDeadline returns the q-quantile of the estimated round times
// (+Inf with no estimates).
func quantileDeadline(est map[int]float64, q float64) float64 {
	if len(est) == 0 {
		return inf()
	}
	times := make([]float64, 0, len(est))
	for _, t := range est {
		times = append(times, t)
	}
	sort.Float64s(times)
	// Ceil-based rank: the q-quantile is the smallest element with at least
	// a q-fraction of the sample at or below it (q=0.5 over 5 estimates →
	// the 3rd, the true median). The truncating rank int(q·n)−1 it replaces
	// was biased low on any n where q·n is fractional.
	i := int(math.Ceil(q*float64(len(times)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(times) {
		i = len(times) - 1
	}
	return times[i]
}

func inf() float64 { return math.Inf(1) }

// NewController builds the per-client round controller. Called serially by
// the runner; the returned controllers then run in parallel but each drives
// only its own profiler. The AnchorRounds bump still takes statsMu: Stats
// may be polled from another goroutine while the round (and this serial
// construction phase) executes.
func (s *Scheme) NewController(c *fl.Client, round int, plan fl.RoundPlan) fl.Controller {
	p := s.Profiler(c.ID)
	anchor := s.IsAnchorRound(round)
	if anchor {
		p.BeginAnchor(round)
		s.statsMu.Lock()
		s.stats.AnchorRounds++
		s.statsMu.Unlock()
		if s.tel != nil {
			s.tel.AnchorRounds.Inc()
		}
	}
	return &controller{s: s, prof: p, anchor: anchor, deadline: plan.Deadline, cid: c.ID, round: round}
}

// controller is FedCA's per-client, per-round decision maker. It implements
// TryEarlyStop and TryEagerTransmit (paper Sec. 5.1) inside AfterIteration,
// and TryRetransmit inside Finalize.
type controller struct {
	fl.NopController
	s        *Scheme
	prof     *Profiler
	anchor   bool
	deadline float64
	cid      int
	round    int

	stopped   bool
	stopIter  int
	lrDecayed bool
	eagerSent map[int]bool
}

// AfterIteration profiles (anchor rounds) or applies the utility-guided early
// stop and threshold-triggered eager transmissions (regular rounds).
func (c *controller) AfterIteration(st fl.IterState) fl.IterAction {
	if c.anchor {
		// Footnote 3 of the paper: anchor rounds run with no optimizations
		// so the profiled curves are complete and valid.
		c.prof.Record(st.Ranges, st.Delta)
		return fl.IterAction{}
	}
	curves := c.prof.Curves()
	if curves == nil {
		return fl.IterAction{} // no profile yet: behave like FedAvg
	}
	opt := &c.s.Opt
	var action fl.IterAction

	if opt.Eager {
		if c.eagerSent == nil {
			c.eagerSent = make(map[int]bool)
		}
		for l := range curves.Layer {
			if c.eagerSent[l] {
				continue
			}
			// Eq. 5: transmit when the anchor curve crosses T_e at τ.
			if curves.LayerAt(l, st.Iter) >= opt.Te && curves.LayerAt(l, st.Iter-1) < opt.Te {
				action.EagerLayers = append(action.EagerLayers, l)
				c.eagerSent[l] = true
			}
		}
	}

	if opt.AdaptiveLR && !c.lrDecayed {
		at := opt.LRDecayAt
		if at <= 0 {
			at = 0.9
		}
		if curves.At(st.Iter) >= at {
			action.LRScale = 0.5
			c.lrDecayed = true
		}
	}

	if opt.EarlyStop && st.Iter >= opt.MinIterations {
		b := MarginalBenefit(curves, st.Iter, st.K, opt.DisableBenFloor)
		cost := MarginalCost(st.Elapsed, c.deadline, opt.Beta)
		if NetBenefit(b, cost) < 0 {
			action.Stop = true
			c.stopped = true
			c.stopIter = st.Iter
		}
	}
	return action
}

// OnDropout (fl.DropoutObserver) closes the round for a client that vanished
// mid-round: a half-recorded anchor is aborted so the profiler is not left
// armed with partial samples — the previous anchor's curves deliberately
// stay in force until the next completed anchor re-profiles.
func (c *controller) OnDropout(iter int) {
	if c.anchor {
		c.prof.AbortAnchor()
		if c.s.tel != nil {
			c.s.tel.AnchorAborts.Inc()
		}
		// Worker-side emission: the journal is mutex-sharded and safe here.
		c.s.journal.AnchorAbort(c.round, c.cid, iter)
	}
	c.s.statsMu.Lock()
	defer c.s.statsMu.Unlock()
	c.s.stats.DroppedRounds++
	if c.anchor {
		c.s.stats.AnchorAborts++
	}
}

// Finalize turns anchor recordings into curves, or applies the Eq. 6
// retransmission check to every eagerly transmitted layer.
func (c *controller) Finalize(st fl.FinalState) fl.FinalAction {
	if c.anchor {
		c.prof.FinishAnchor()
		return fl.FinalAction{}
	}
	tel := c.s.tel
	c.s.statsMu.Lock()
	if c.stopped {
		c.s.stats.EarlyStopIters = append(c.s.stats.EarlyStopIters, c.stopIter)
	} else {
		c.s.stats.FullRounds++
	}
	var action fl.FinalAction
	retransmits := 0
	for ei, rec := range st.Eager {
		c.s.stats.EagerSentTotal++
		rg := st.Ranges[rec.Layer]
		final := st.Delta[rg.Start:rg.End]
		if c.s.Opt.Retransmit && CosineSimilarity(final, rec.Snapshot) < c.s.Opt.Tr {
			action.Retransmit = append(action.Retransmit, ei)
			c.s.stats.RetransmitsTotal++
			c.s.stats.RetransmitIters = append(c.s.stats.RetransmitIters, st.Iterations)
			retransmits++
		} else {
			c.s.stats.EagerIters = append(c.s.stats.EagerIters, rec.Iter)
		}
	}
	c.s.statsMu.Unlock()
	if tel != nil {
		if c.stopped {
			tel.EarlyStops.Inc()
		} else {
			tel.FullRounds.Inc()
		}
		tel.EagerTx.Add(float64(len(st.Eager)))
		tel.Retransmits.Add(float64(retransmits))
	}
	return action
}
