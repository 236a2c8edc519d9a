package soak

import (
	"fmt"

	"fedca"
	"fedca/internal/execpool"
	"fedca/internal/telemetry"
)

// Sample is a live observation handed to monitors every Config.CheckEvery
// rounds, while the phase's federation is running.
type Sample struct {
	// Round is the number of soak rounds completed so far (global, across
	// phases).
	Round int
	// Phase identifies the phase the sample was taken in.
	Phase PhaseInfo
	// Snapshot is the running federation's live status (round, accuracy,
	// degradation counters, CPU-token budget).
	Snapshot fedca.Snapshot
	// HeapAlloc is runtime.MemStats.HeapAlloc at sampling time (no forced
	// GC; the phase-boundary measure in PhaseResult is the clean one).
	HeapAlloc uint64
}

// Violation is one invariant breach. It names everything needed to
// reproduce the offending phase bit-for-bit: the canonical spec string and
// the seed (feed both to RunPhase, or fedca-sim repro).
type Violation struct {
	Monitor    string `json:"monitor"`
	Phase      string `json:"phase"`
	PhaseIndex int    `json:"phase_index"`
	// Round is the global soak round the violation was detected at.
	Round  int    `json:"round"`
	Seed   uint64 `json:"seed"`
	Spec   string `json:"spec"`
	Detail string `json:"detail"`
	// Events is the journal's newest events at detection time (when the soak
	// ran with a flight recorder attached): the causal window just before the
	// breach, carried in the report so a nightly violation explains itself.
	Events []telemetry.Event `json:"events,omitempty"`
}

// Monitor is a pluggable soak invariant. Sample is called every
// Config.CheckEvery rounds with a live observation; PhaseEnd after every
// completed phase with its outcome. Both run on the soak goroutine, so
// implementations need no locking of their own. Embed NopMonitor to
// implement only one hook.
type Monitor interface {
	Name() string
	Sample(s Sample) []Violation
	PhaseEnd(p PhaseResult) []Violation
}

// NopMonitor is an embeddable no-op implementation of Monitor's hooks.
type NopMonitor struct{}

func (NopMonitor) Sample(Sample) []Violation        { return nil }
func (NopMonitor) PhaseEnd(PhaseResult) []Violation { return nil }

// tokenMonitor asserts the cputok invariant: the high-water mark of
// concurrently held CPU tokens never exceeds the largest capacity observed.
// A breach means some fan-out layer escaped the shared budget.
type tokenMonitor struct {
	NopMonitor
	maxCap int
}

func (m *tokenMonitor) Name() string { return "cputok" }

func (m *tokenMonitor) Sample(s Sample) []Violation {
	if c := s.Snapshot.Tokens.Cap; c > m.maxCap {
		m.maxCap = c
	}
	if max := s.Snapshot.Tokens.Max; max > m.maxCap {
		return []Violation{{
			Monitor:    m.Name(),
			Phase:      s.Phase.Name,
			PhaseIndex: s.Phase.Index,
			Round:      s.Round,
			Seed:       s.Phase.Seed,
			Spec:       s.Phase.Spec,
			Detail:     fmt.Sprintf("MaxInflight %d exceeds budget cap %d", max, m.maxCap),
		}}
	}
	return nil
}

// ratesMonitor checks each phase's degradation rates against the acceptance
// bands carried in its spec: skipped-rounds fraction, quarantined-updates
// fraction, link retries per round.
type ratesMonitor struct{ NopMonitor }

func (ratesMonitor) Name() string { return "rates" }

func (m ratesMonitor) PhaseEnd(p PhaseResult) []Violation {
	var out []Violation
	flag := func(name string, rate float64, b Band) {
		if b.Contains(rate) {
			return
		}
		out = append(out, Violation{
			Monitor:    m.Name(),
			Phase:      p.Name,
			PhaseIndex: p.Index,
			Round:      p.StartRound + p.Rounds - 1,
			Seed:       p.Seed,
			Spec:       p.Spec,
			Detail:     fmt.Sprintf("%s rate %.4g outside band [%g,%g]", name, rate, b.Lo, b.Hi),
		})
	}
	rounds := float64(p.Rounds)
	flag("skipped-rounds", float64(p.SkippedRounds)/rounds, p.Bands.Skip)
	attempts := p.Collected + p.Quarantined
	quarRate := 0.0
	if attempts > 0 {
		quarRate = float64(p.Quarantined) / float64(attempts)
	}
	flag("quarantined-updates", quarRate, p.Bands.Quarantine)
	flag("link-retries-per-round", float64(p.LinkRetries)/rounds, p.Bands.Retry)
	return out
}

// heapMonitor watches for unbounded memory growth: it collects the post-GC
// live-heap measure taken at every phase boundary and, once enough samples
// exist past the warmup window, fits a least-squares slope over them. A
// sustained slope above MaxSlope bytes/round combined with a total rise
// above MinRise flags a leak; the warmup exclusion keeps one-time
// allocations (pools, caches, lazily built tables) out of the fit.
type heapMonitor struct {
	NopMonitor
	warmup   int
	maxSlope float64 // bytes per round
	minRise  float64 // bytes, absolute floor before the slope can fire
	maxAbs   float64 // bytes, absolute live-heap cap (0 = no cap)
	rounds   []float64
	heaps    []float64
	fired    bool
	absFired bool
}

func (m *heapMonitor) Name() string { return "heap" }

func (m *heapMonitor) PhaseEnd(p PhaseResult) []Violation {
	m.rounds = append(m.rounds, float64(p.StartRound+p.Rounds))
	m.heaps = append(m.heaps, float64(p.HeapBytes))
	// The absolute cap is the O(cohort) memory invariant: a virtual-fleet
	// soak sets it to a cohort-proportional bound, so any phase whose live
	// heap scales with the fleet instead of the cohort fires immediately —
	// no slope fit, no warmup (slot pools are counted in the bound).
	if m.maxAbs > 0 && !m.absFired && float64(p.HeapBytes) > m.maxAbs {
		m.absFired = true
		return []Violation{{
			Monitor:    m.Name(),
			Phase:      p.Name,
			PhaseIndex: p.Index,
			Round:      p.StartRound + p.Rounds - 1,
			Seed:       p.Seed,
			Spec:       p.Spec,
			Detail: fmt.Sprintf("live heap %d bytes exceeds the absolute cap %.0f bytes",
				p.HeapBytes, m.maxAbs),
		}}
	}
	if m.fired || len(m.rounds) < m.warmup+3 {
		return nil
	}
	xs, ys := m.rounds[m.warmup:], m.heaps[m.warmup:]
	slope := leastSquaresSlope(xs, ys)
	rise := ys[len(ys)-1] - ys[0]
	if slope > m.maxSlope && rise > m.minRise {
		m.fired = true
		return []Violation{{
			Monitor:    m.Name(),
			Phase:      p.Name,
			PhaseIndex: p.Index,
			Round:      p.StartRound + p.Rounds - 1,
			Seed:       p.Seed,
			Spec:       p.Spec,
			Detail: fmt.Sprintf("live heap growing %.0f bytes/round over %d post-warmup samples (rise %.0f bytes, limit %.0f bytes/round)",
				slope, len(xs), rise, m.maxSlope),
		}}
	}
	return nil
}

func leastSquaresSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// determinismMonitor re-runs sampled phases and asserts the soak's central
// reproducibility claim: equal (spec, seed) produce bit-identical rounds
// and final parameters at any worker count, with or without telemetry. The
// recheck forces the CPU-token budget to one (the serial reference path)
// and flips telemetry relative to the live run, so one pass covers both
// worker-count invariance and telemetry inertness. Rechecks execute through
// an execpool cell keyed on the phase fingerprint inputs, so repeated
// requests for the same phase (schedule cycles, reproduce-from-report) are
// deduplicated and content-addressed.
type determinismMonitor struct {
	NopMonitor
	every   int // recheck phases where Index % every == 0
	pool    *execpool.Pool
	liveTel bool // live run had a telemetry sink attached
	tel     *telemetry.SoakMetrics
}

func (m *determinismMonitor) Name() string { return "determinism" }

func (m *determinismMonitor) PhaseEnd(p PhaseResult) []Violation {
	if m.every <= 0 || p.Index%m.every != 0 {
		return nil
	}
	fp, err := recheckPhase(m.pool, p, !m.liveTel)
	if err != nil {
		m.tel.RecheckDone(false)
		return []Violation{{
			Monitor:    m.Name(),
			Phase:      p.Name,
			PhaseIndex: p.Index,
			Round:      p.StartRound + p.Rounds - 1,
			Seed:       p.Seed,
			Spec:       p.Spec,
			Detail:     fmt.Sprintf("serial recheck failed to run: %v", err),
		}}
	}
	matched := fp == p.Fingerprint
	m.tel.RecheckDone(matched)
	if matched {
		return nil
	}
	return []Violation{{
		Monitor:    m.Name(),
		Phase:      p.Name,
		PhaseIndex: p.Index,
		Round:      p.StartRound + p.Rounds - 1,
		Seed:       p.Seed,
		Spec:       p.Spec,
		Detail: fmt.Sprintf("serial recheck fingerprint %.16s... != live %.16s... (telemetry flipped: %v)",
			fp, p.Fingerprint, !m.liveTel),
	}}
}
