package core

import (
	"math"
	"sort"
	"sync"

	"fedca/internal/fl"
	"fedca/internal/rng"
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

	ProfilePeriod   int // anchor round spacing (10)
	SampleCap       int // per-layer sample cap (100)
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
	// client is deep in diminishing returns (P_{T,τ} ≥ lrDecayAt), the local
	// learning rate is halved for the rest of the round, trading step size
	// for noise reduction near the local optimum.
	AdaptiveLR bool
}

// lrDecayAt is the progress level at which AdaptiveLR halves the learning
// rate.
const lrDecayAt = 0.9

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
}

// NewScheme builds a FedCA scheme. r seeds the per-client sampling choices.
func NewScheme(opt Options, r *rng.RNG) *Scheme {
	if opt.K <= 0 {
		panic("core: Options.K must be positive")
	}
	if opt.ProfilePeriod <= 0 {
		opt.ProfilePeriod = 10
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

// Profiler returns (creating if needed) the persistent profiler of a client.
// Map access is locked so concurrent readers cannot corrupt it; the returned
// Profiler itself is only ever driven by one worker at a time (the fl
// contract serializes one client's hooks).
func (s *Scheme) Profiler(clientID int) *Profiler {
	s.profMu.Lock()
	defer s.profMu.Unlock()
	p, ok := s.profilers[clientID]
	if !ok {
		p = NewProfiler(s.Opt.SampleCap, DefaultSampleFrac, s.r.Fork("profiler", clientID))
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
	anchor := s.IsAnchorRound(round)
	if q := s.Opt.DeadlineQuantile; q > 0 {
		return fl.RoundPlan{Deadline: quantileDeadline(est, q), Anchor: anchor}
	}
	return fl.RoundPlan{Deadline: fl.FedBalancerDeadline(est), Anchor: anchor}
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
// only its own profiler.
func (s *Scheme) NewController(c *fl.Client, round int, plan fl.RoundPlan) fl.Controller {
	p := s.Profiler(c.ID)
	if plan.Anchor {
		p.BeginAnchor(round)
	}
	return &controller{s: s, prof: p, anchor: plan.Anchor, deadline: plan.Deadline}
}

// controller is FedCA's per-client, per-round decision maker. It implements
// TryEarlyStop and TryEagerTransmit (paper Sec. 5.1) inside AfterIteration,
// and TryRetransmit inside Finalize.
type controller struct {
	s        *Scheme
	prof     *Profiler
	anchor   bool
	deadline float64

	lrDecayed bool
}

// AfterIteration profiles (anchor rounds) or applies the utility-guided early
// stop and threshold-triggered eager transmissions (regular rounds).
func (c *controller) AfterIteration(st fl.IterState) fl.IterAction {
	if c.anchor {
		// Footnote 3 of the paper: anchor rounds run with no optimizations
		// so the profiled curves are complete and valid.
		c.prof.Record(st.Ranges, st.Accumulated())
		return fl.IterAction{}
	}
	curves := c.prof.Curves()
	if curves == nil {
		return fl.IterAction{} // no profile yet: behave like FedAvg
	}
	opt := &c.s.Opt
	var action fl.IterAction

	if opt.Eager {
		for l := range curves.Layer {
			// Eq. 5: transmit when the anchor curve crosses T_e at τ (should
			// it cross again, the runner sends a layer once per round).
			if curves.LayerAt(l, st.Iter) >= opt.Te && curves.LayerAt(l, st.Iter-1) < opt.Te {
				action.EagerLayers = append(action.EagerLayers, l)
			}
		}
	}

	if opt.AdaptiveLR && !c.lrDecayed {
		if curves.At(st.Iter) >= lrDecayAt {
			action.LRScale = 0.5
			c.lrDecayed = true
		}
	}

	if opt.EarlyStop {
		b := MarginalBenefit(curves, st.Iter, st.K, opt.DisableBenFloor)
		cost := MarginalCost(st.Elapsed, c.deadline, opt.Beta)
		if NetBenefit(b, cost) < 0 {
			action.Stop = true
		}
	}
	return action
}

// Finalize turns anchor recordings into curves, or applies the Eq. 6
// retransmission check to every eagerly transmitted layer. For a client that
// vanished mid-round it aborts a half-recorded anchor, so the profiler is not
// left armed with partial samples — the previous anchor's curves
// deliberately stay in force until the next completed anchor re-profiles.
func (c *controller) Finalize(st fl.FinalState) fl.FinalAction {
	if st.Dropped {
		if c.anchor {
			c.prof.AbortAnchor()
		}
		return fl.FinalAction{}
	}
	if c.anchor {
		c.prof.FinishAnchor()
		return fl.FinalAction{}
	}
	var action fl.FinalAction
	if !c.s.Opt.Retransmit {
		return action
	}
	for ei, rec := range st.Eager {
		rg := st.Ranges[rec.Layer]
		if CosineSimilarity(st.Delta[rg.Start:rg.End], rec.Snapshot) < c.s.Opt.Tr {
			action.Retransmit = append(action.Retransmit, ei)
		}
	}
	return action
}
