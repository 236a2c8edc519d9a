package soak

import (
	"fmt"

	"fedca"
	"fedca/internal/telemetry"
)

// sample is a live observation handed to monitors every Config.CheckEvery
// rounds, while the phase's federation is running.
type sample struct {
	// Round is the number of soak rounds completed so far (global, across
	// phases).
	Round int
	// Phase identifies the phase the sample was taken in.
	Phase PhaseInfo
	// Snapshot is the running federation's live status (round, accuracy,
	// degradation counters, CPU-token budget).
	Snapshot fedca.Snapshot
}

// Violation is one invariant breach. It names everything needed to
// reproduce the offending phase bit-for-bit: the canonical spec string,
// seed included (feed it to RunPhase, or fedca-sim repro).
type Violation struct {
	Monitor    string `json:"monitor"`
	Phase      string `json:"phase"`
	PhaseIndex int    `json:"phase_index"`
	// Round is the global soak round the violation was detected at.
	Round  int    `json:"round"`
	Spec   string `json:"spec"`
	Detail string `json:"detail"`
	// Events is the journal's newest events at detection time (when the soak
	// ran with a flight recorder attached): the causal window just before the
	// breach, carried in the report so a nightly violation explains itself.
	Events []telemetry.Event `json:"events,omitempty"`
}

// violationAt reports monitor's breach in phase p at global round round.
func violationAt(p PhaseInfo, monitor string, round int, format string, args ...any) []Violation {
	return []Violation{{
		Monitor: monitor, Phase: p.Name, PhaseIndex: p.Index, Round: round,
		Spec: p.Spec, Detail: fmt.Sprintf(format, args...),
	}}
}

// violation reports monitor's breach at the phase's last round.
func (p PhaseResult) violation(monitor, format string, args ...any) []Violation {
	return violationAt(p.PhaseInfo, monitor, p.StartRound+p.Rounds-1, format, args...)
}

// monitor is one soak invariant. Sample is called every Config.CheckEvery
// rounds with a live observation; PhaseEnd after every completed phase with
// its outcome. Both run on the soak goroutine, so monitors need no locking
// of their own. Embed nopMonitor to implement only one hook.
type monitor interface {
	Name() string
	Sample(s sample) []Violation
	PhaseEnd(p PhaseResult) []Violation
}

// nopMonitor is an embeddable no-op implementation of monitor's hooks.
type nopMonitor struct{}

func (nopMonitor) Sample(sample) []Violation        { return nil }
func (nopMonitor) PhaseEnd(PhaseResult) []Violation { return nil }

// tokenMonitor asserts the cputok invariant: the high-water mark of
// concurrently held CPU tokens never exceeds the largest capacity observed.
// A breach means some fan-out layer escaped the shared budget.
type tokenMonitor struct {
	nopMonitor
	maxCap int
}

func (m *tokenMonitor) Name() string { return "cputok" }

func (m *tokenMonitor) Sample(s sample) []Violation {
	if c := s.Snapshot.Tokens.Cap; c > m.maxCap {
		m.maxCap = c
	}
	if max := s.Snapshot.Tokens.Max; max > m.maxCap {
		return violationAt(s.Phase, m.Name(), s.Round, "MaxInflight %d exceeds budget cap %d", max, m.maxCap)
	}
	return nil
}

// ratesMonitor checks each phase's degradation rates against the acceptance
// bands carried in its spec: skipped-rounds fraction, quarantined-updates
// fraction, uplink retries per round.
type ratesMonitor struct{ nopMonitor }

func (ratesMonitor) Name() string { return "rates" }

func (m ratesMonitor) PhaseEnd(p PhaseResult) []Violation {
	var out []Violation
	flag := func(name string, rate float64, b Band) {
		if b.Contains(rate) {
			return
		}
		out = append(out, p.violation(m.Name(), "%s rate %.4g outside band [%g,%g]", name, rate, b.Lo, b.Hi)...)
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

// The heap monitor's bounds: the first heapWarmup phase-boundary samples
// stay out of the growth fit, and a leak is a slope above maxHeapSlope
// bytes/round together with a rise above minHeapRise bytes.
const (
	heapWarmup   = 2
	maxHeapSlope = 32 << 10
	minHeapRise  = 16 << 20
)

// heapMonitor watches for unbounded memory growth: it collects the post-GC
// live-heap measure taken at every phase boundary and, once enough samples
// exist past the warmup window, fits a least-squares slope over them. A
// sustained slope above maxHeapSlope combined with a total rise above
// minHeapRise flags a leak; the warmup exclusion keeps one-time allocations
// (pools, caches, lazily built tables) out of the fit.
type heapMonitor struct {
	nopMonitor
	rounds []float64
	heaps  []float64
	fired  bool
}

func (m *heapMonitor) Name() string { return "heap" }

func (m *heapMonitor) PhaseEnd(p PhaseResult) []Violation {
	m.rounds = append(m.rounds, float64(p.StartRound+p.Rounds))
	m.heaps = append(m.heaps, float64(p.HeapBytes))
	if m.fired || len(m.rounds) < heapWarmup+3 {
		return nil
	}
	xs, ys := m.rounds[heapWarmup:], m.heaps[heapWarmup:]
	slope := leastSquaresSlope(xs, ys)
	rise := ys[len(ys)-1] - ys[0]
	if slope > maxHeapSlope && rise > minHeapRise {
		m.fired = true
		return p.violation(m.Name(), "live heap growing %.0f bytes/round over %d post-warmup samples (rise %.0f bytes, limit %.0f bytes/round)",
			slope, len(xs), rise, float64(maxHeapSlope))
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
// reproducibility claim: equal specs produce bit-identical rounds
// and final parameters at any worker count, with or without telemetry. The
// recheck forces the CPU-token budget to one (the serial reference path)
// and flips telemetry relative to the live run, so one pass covers both
// worker-count invariance and telemetry inertness.
type determinismMonitor struct {
	nopMonitor
	every   int  // recheck phases where Index % every == 0
	liveTel bool // live run had a telemetry sink attached
	tel     *telemetry.SoakMetrics
	runs    int // rechecks executed
}

func (m *determinismMonitor) Name() string { return "determinism" }

func (m *determinismMonitor) PhaseEnd(p PhaseResult) []Violation {
	if m.every <= 0 || p.Index%m.every != 0 {
		return nil
	}
	m.runs++
	fp, err := recheckPhase(p, !m.liveTel)
	if err != nil {
		m.tel.RecheckDone(false)
		return p.violation(m.Name(), "serial recheck failed to run: %v", err)
	}
	matched := fp == p.Fingerprint
	m.tel.RecheckDone(matched)
	if matched {
		return nil
	}
	return p.violation(m.Name(), "serial recheck fingerprint %.16s... != live %.16s... (telemetry flipped: %v)",
		fp, p.Fingerprint, !m.liveTel)
}
