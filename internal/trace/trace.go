// Package trace models per-client compute-speed behaviour: static
// heterogeneity across clients (FedScale-like spread of average speeds) plus
// the paper's intra-round dynamicity model, in which every client toggles
// between a fast mode and a slow mode whose durations are gamma distributed
// (Γ(2,40) fast, Γ(2,6) slow, in seconds) and whose slowdown ratio is drawn
// uniformly from U(1,5) per slow period (Sec. 5.1 of the paper).
//
// The paper's testbed realizes a target speed by injecting a sleep after each
// local iteration sized by the current mode; we reproduce exactly that
// semantics: the duration of an iteration starting at virtual time t is
// base · static · dynamicFactor(t).
package trace

import (
	"math"

	"fedca/internal/rng"
)

// The paper's dynamicity model (Sec. 5.1): fast periods last Γ(2, 40)
// seconds, slow periods Γ(2, 6), and each slow period slows the client by a
// factor drawn from U(1, 5). The static factor is clamped to
// [staticClampLo, staticClampHi] against extreme lognormal draws.
const (
	fastShape, fastScale         float64 = 2, 40
	slowShape, slowScale         float64 = 2, 6
	slowdownLo, slowdownHi       float64 = 1, 5
	staticClampLo, staticClampHi float64 = 0.5, 8
)

// Config parameterizes the fleet's speed behaviour.
type Config struct {
	// HeterogeneitySigma is the stddev of the log of the static speed
	// factor; 0 means a homogeneous fleet. FedScale-like spread ≈ 0.6.
	HeterogeneitySigma float64
	// Dynamic enables fast/slow mode toggling.
	Dynamic bool
}

// PaperConfig returns the heterogeneity and dynamicity of the paper's
// evaluation.
func PaperConfig() Config {
	return Config{HeterogeneitySigma: 0.6, Dynamic: true}
}

// segment is one constant-factor stretch of a client's dynamic timeline.
type segment struct {
	start, end float64
	factor     float64 // ≥ 1; 1 in fast mode
}

// SpeedModel is one client's speed timeline. Static is the client's
// heterogeneity multiplier (1 = nominal hardware; larger = slower client).
// The dynamic timeline is generated lazily and deterministically from the
// client's own RNG, so two runs observe the identical trace.
type SpeedModel struct {
	Static float64
	cfg    Config
	segs   []segment
	r      *rng.RNG
}

// extendTo generates timeline segments until they cover time t.
func (m *SpeedModel) extendTo(t float64) {
	for len(m.segs) == 0 || m.segs[len(m.segs)-1].end <= t {
		var start float64
		fast := true // timelines start in fast mode
		if n := len(m.segs); n > 0 {
			start = m.segs[n-1].end
			fast = m.segs[n-1].factor != 1
		}
		var dur, factor float64
		if fast {
			dur = m.r.Gamma(fastShape, fastScale)
			factor = 1
		} else {
			dur = m.r.Gamma(slowShape, slowScale)
			factor = m.r.Uniform(slowdownLo, slowdownHi)
		}
		if dur <= 0 {
			dur = 1e-9
		}
		m.segs = append(m.segs, segment{start: start, end: start + dur, factor: factor})
	}
}

// DynamicFactorAt returns the dynamic slowdown in effect at time t (1 when
// dynamicity is disabled).
func (m *SpeedModel) DynamicFactorAt(t float64) float64 {
	if !m.cfg.Dynamic {
		return 1
	}
	if t < 0 {
		t = 0
	}
	m.extendTo(t)
	// Binary search the covering segment.
	lo, hi := 0, len(m.segs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.segs[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return m.segs[lo].factor
}

// IterDurationWith returns the wall time of one local iteration with nominal
// cost base seconds, starting at time t — the paper's sleep-injection
// semantics (the mode at iteration start governs the whole iteration) —
// slowed by the static factor, the dynamic factor and one more
// multiplicative slowdown, extra: the hook fault injection (internal/chaos
// transient slowdowns) uses to stack on the trace's own dynamics. extra = 1
// is the trace's own duration.
func (m *SpeedModel) IterDurationWith(base, t, extra float64) float64 {
	if extra < 0 {
		panic("trace: extra slowdown factor must be non-negative")
	}
	return base * m.Static * m.DynamicFactorAt(t) * extra
}

// NewClientSpeed derives client i's speed model from the fleet RNG: the
// static factor is lognormal with the configured sigma (clamped) and the
// dynamic trace gets its own fork. A pure function of (r's state, i) —
// forking never advances r — so virtual fleets can materialize any client's
// model on demand, in any order, bit-identical to a NewFleet build.
func NewClientSpeed(i int, cfg Config, r *rng.RNG) *SpeedModel {
	m := &SpeedModel{}
	m.ResetClient(i, cfg, r)
	return m
}

// ResetClient turns m into NewClientSpeed(i, cfg, r)'s model — the same
// static factor and the same timeline — keeping only the capacity of its
// timeline and its generator. A pooled virtual-fleet slot re-derives one
// model for every client that occupies it this way, allocating nothing once
// the timeline has grown to the run's length.
func (m *SpeedModel) ResetClient(i int, cfg Config, r *rng.RNG) {
	var cr rng.RNG
	r.ForkInto(&cr, "client-speed", i)
	static := 1.0
	if cfg.HeterogeneitySigma > 0 {
		static = clampExpNormal(&cr, cfg.HeterogeneitySigma)
	}
	if m.r == nil {
		m.r = &rng.RNG{}
	}
	cr.ForkInto(m.r, "dyn")
	*m = SpeedModel{Static: static, cfg: cfg, segs: m.segs[:0], r: m.r}
}

// NewFleet builds n speed models via NewClientSpeed.
func NewFleet(n int, cfg Config, r *rng.RNG) []*SpeedModel {
	fleet := make([]*SpeedModel, n)
	for i := 0; i < n; i++ {
		fleet[i] = NewClientSpeed(i, cfg, r)
	}
	return fleet
}

func clampExpNormal(r *rng.RNG, sigma float64) float64 {
	return min(max(math.Exp(r.Normal(0, sigma)), staticClampLo), staticClampHi)
}
