// Package chaos is the deterministic fault-injection engine of the
// simulator. It schedules faults in virtual time — iteration-level client
// dropout, transient compute slowdowns layered on internal/trace, link
// degradation and outage windows, transfer failures with retransmission, and
// corrupted model updates — as a pure function of (master seed, client id,
// round index).
//
// Because every Plan derives from an immutable seed through rng.Fork, fault
// schedules are bit-identical across runs, goroutine interleavings and worker
// counts: the same property the rest of the simulator guarantees for training
// math and timings (see DESIGN.md §6 and §8). The engine itself holds no
// mutable state and is safe for concurrent use from any number of workers.
//
// The paper's evaluation (Sec. 5.1) stresses FedCA with dynamic client
// speeds and stragglers; this package generalizes that to the availability
// patterns highlighted by the FL literature on heterogeneous and correlated
// client participation: what can fail is modelled explicitly, and the fl
// round loop degrades gracefully instead of dying.
package chaos

import (
	"fmt"
	"math"

	"fedca/internal/rng"
)

// Corruption classifies how a client's uploaded update is damaged.
type Corruption int

// Corruption kinds. NaN and Inf poison a handful of coordinates (a torn
// buffer or a diverged local step); Explode scales the whole delta by
// Config.ExplodeScale (a blown-up learning rate). None leaves it intact.
const (
	CorruptNone Corruption = iota
	CorruptNaN
	CorruptInf
	CorruptExplode
)

func (c Corruption) String() string {
	switch c {
	case CorruptNone:
		return "none"
	case CorruptNaN:
		return "nan"
	case CorruptInf:
		return "inf"
	case CorruptExplode:
		return "explode"
	default:
		return fmt.Sprintf("corruption(%d)", int(c))
	}
}

// Config holds the per-client-round fault probabilities and shape
// parameters. The zero value injects nothing; Validate fills the shape
// defaults for any enabled fault class.
type Config struct {
	// DropProb is the probability that the client vanishes mid-round, at an
	// iteration drawn uniformly from [1, budget].
	DropProb float64

	// SlowProb is the probability of one transient compute slowdown during
	// the round: a window of SlowFrac·budget iterations (at a uniform start)
	// runs SlowFactorLo..Hi times slower, layered multiplicatively on the
	// client's trace.SpeedModel dynamics.
	SlowProb                   float64
	SlowFactorLo, SlowFactorHi float64 // default U(2, 6)
	SlowFrac                   float64 // default 0.25 of the budget

	// DegradeProb is the probability that both of the client's links run at
	// DegradeScaleLo..Hi of nominal bandwidth for the whole round.
	DegradeProb                    float64
	DegradeScaleLo, DegradeScaleHi float64 // default U(0.1, 0.6)

	// OutageProb is the probability of one complete uplink outage window
	// during the round, lasting OutageFracLo..Hi of the nominal round compute
	// time (budget · base iteration seconds). Transfers in flight pause and
	// resume; queued transfers wait.
	OutageProb                 float64
	OutageFracLo, OutageFracHi float64 // default U(0.05, 0.3)

	// XferFailProb is the per-attempt probability that a transfer fails
	// after consuming its full airtime and must be retransmitted, up to
	// XferMaxRetries extra attempts (then it goes through regardless — the
	// simulator has no notion of a permanently lost payload; total loss is
	// modelled by DropProb).
	XferFailProb   float64
	XferMaxRetries int // default 3

	// CorruptProb is the probability the client's final update arrives
	// damaged (kind drawn uniformly from NaN / Inf / Explode). The server's
	// update validation, on whenever fl.Config.Chaos is set, quarantines such
	// deltas.
	CorruptProb  float64
	ExplodeScale float64 // default 1e12
}

// Validate checks probabilities and applies shape defaults in place.
func (c *Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", c.DropProb}, {"slow", c.SlowProb}, {"degrade", c.DegradeProb},
		{"outage", c.OutageProb}, {"xfail", c.XferFailProb}, {"corrupt", c.CorruptProb},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("chaos: %s probability must be in [0,1], got %v", p.name, p.v)
		}
	}
	// The shape bounds are negated so that a NaN, which no spec can
	// reproduce (it is not equal to itself), fails them too.
	if c.SlowFactorLo == 0 && c.SlowFactorHi == 0 {
		c.SlowFactorLo, c.SlowFactorHi = 2, 6
	}
	if !(c.SlowFactorLo >= 1 && c.SlowFactorHi >= c.SlowFactorLo) {
		return fmt.Errorf("chaos: slowdown factors must satisfy 1 <= lo <= hi, got [%v, %v]", c.SlowFactorLo, c.SlowFactorHi)
	}
	if c.SlowFrac == 0 {
		c.SlowFrac = 0.25
	}
	if !(c.SlowFrac >= 0 && c.SlowFrac <= 1) {
		return fmt.Errorf("chaos: SlowFrac must be in [0,1], got %v", c.SlowFrac)
	}
	if c.DegradeScaleLo == 0 && c.DegradeScaleHi == 0 {
		c.DegradeScaleLo, c.DegradeScaleHi = 0.1, 0.6
	}
	if !(c.DegradeScaleLo > 0 && c.DegradeScaleHi <= 1 && c.DegradeScaleHi >= c.DegradeScaleLo) {
		return fmt.Errorf("chaos: degrade scales must satisfy 0 < lo <= hi <= 1, got [%v, %v]", c.DegradeScaleLo, c.DegradeScaleHi)
	}
	if c.OutageFracLo == 0 && c.OutageFracHi == 0 {
		c.OutageFracLo, c.OutageFracHi = 0.05, 0.3
	}
	if !(c.OutageFracLo > 0 && c.OutageFracHi >= c.OutageFracLo) {
		return fmt.Errorf("chaos: outage fractions must satisfy 0 < lo <= hi, got [%v, %v]", c.OutageFracLo, c.OutageFracHi)
	}
	if c.XferMaxRetries == 0 {
		c.XferMaxRetries = 3
	}
	if c.XferMaxRetries < 0 {
		return fmt.Errorf("chaos: XferMaxRetries must be non-negative")
	}
	if c.ExplodeScale == 0 {
		c.ExplodeScale = 1e12
	}
	if !(c.ExplodeScale > 1) {
		return fmt.Errorf("chaos: ExplodeScale must exceed 1, got %v", c.ExplodeScale)
	}
	// An infinite slowdown or outage never ends: the speed trace would grow
	// its timeline forever to cover it.
	for _, v := range []float64{c.SlowFactorLo, c.SlowFactorHi, c.DegradeScaleLo, c.DegradeScaleHi,
		c.OutageFracLo, c.OutageFracHi, c.ExplodeScale} {
		if math.IsInf(v, 0) {
			return fmt.Errorf("chaos: shape values must be finite, got %v", v)
		}
	}
	return nil
}

// Enabled reports whether any fault class has a nonzero probability.
func (c *Config) Enabled() bool {
	return c.DropProb > 0 || c.SlowProb > 0 || c.DegradeProb > 0 ||
		c.OutageProb > 0 || c.XferFailProb > 0 || c.CorruptProb > 0
}

// Engine derives per-client-round fault Plans from an immutable seed. Safe
// for concurrent use: it holds no mutable state.
type Engine struct {
	cfg  Config
	seed uint64
}

// NewEngine validates cfg (filling defaults) and builds an engine whose
// schedules derive entirely from seed.
func NewEngine(cfg Config, seed uint64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, seed: seed}, nil
}

// Config returns the engine's validated configuration.
func (e *Engine) Config() Config { return e.cfg }

// IterWindow is a transient compute slowdown: iterations From..To (1-based,
// inclusive) run Factor times slower.
type IterWindow struct {
	From, To int
	Factor   float64
}

// LinkWindow impairs a link for [From, To) seconds relative to round start:
// Scale multiplies its bandwidth (0 = outage). To may be +Inf (whole round).
type LinkWindow struct {
	From, To float64
	Scale    float64
}

// Plan is one client's fault schedule for one round. All methods are safe on
// a nil receiver (no faults), so consumers need no nil checks. A Plan is
// consumed by exactly one goroutine (the worker running that client's round):
// Attempts draws from plan-local state.
type Plan struct {
	// Drop is the 1-based iteration after which the client vanishes
	// (0 = stays up).
	Drop int
	// Slow is the round's transient compute slowdown (Factor 1 = none).
	Slow IterWindow
	// Up and Down are the round's link impairments, in seconds relative to
	// the round start.
	Up, Down []LinkWindow
	// Corrupt is how the final update is damaged before upload.
	Corrupt Corruption

	failProb     float64
	maxRetries   int
	explodeScale float64
	xfer         *rng.RNG // per-transfer failure draws, consumed in order
	poison       *rng.RNG // corruption coordinate choices
}

// Plan computes the fault schedule of client clientID in round round with an
// iteration budget of budget and nominal per-iteration compute of
// baseIterTime seconds. Equal arguments always yield an equal plan,
// regardless of caller goroutine or invocation order.
func (e *Engine) Plan(clientID, round, budget int, baseIterTime float64) *Plan {
	if e == nil {
		return nil
	}
	if budget < 1 {
		budget = 1
	}
	r := rng.New(e.seed).Fork("chaos-plan", clientID, round)
	p := &Plan{
		Slow:         IterWindow{Factor: 1},
		failProb:     e.cfg.XferFailProb,
		maxRetries:   e.cfg.XferMaxRetries,
		explodeScale: e.cfg.ExplodeScale,
		xfer:         r.Fork("xfer"),
		poison:       r.Fork("poison"),
	}
	// Draw order is fixed; every class consumes its draws unconditionally so
	// that enabling one fault never shifts another's schedule.
	if u := r.Float64(); e.cfg.DropProb > 0 && u < e.cfg.DropProb {
		p.Drop = 1 + r.Intn(budget)
	} else {
		r.Intn(budget)
	}
	nominal := float64(budget) * baseIterTime
	if u := r.Float64(); e.cfg.SlowProb > 0 && u < e.cfg.SlowProb {
		n := int(math.Round(e.cfg.SlowFrac * float64(budget)))
		if n < 1 {
			n = 1
		}
		from := 1 + r.Intn(budget)
		p.Slow = IterWindow{From: from, To: from + n - 1, Factor: r.Uniform(e.cfg.SlowFactorLo, e.cfg.SlowFactorHi)}
	} else {
		r.Intn(budget)
		r.Uniform(0, 1)
	}
	if u := r.Float64(); e.cfg.DegradeProb > 0 && u < e.cfg.DegradeProb {
		scale := r.Uniform(e.cfg.DegradeScaleLo, e.cfg.DegradeScaleHi)
		w := LinkWindow{From: 0, To: math.Inf(1), Scale: scale}
		p.Up = append(p.Up, w)
		p.Down = append(p.Down, w)
	} else {
		r.Uniform(0, 1)
	}
	if u := r.Float64(); e.cfg.OutageProb > 0 && u < e.cfg.OutageProb {
		dur := nominal * r.Uniform(e.cfg.OutageFracLo, e.cfg.OutageFracHi)
		from := r.Uniform(0, math.Max(nominal, 1e-9))
		p.Up = append(p.Up, LinkWindow{From: from, To: from + dur, Scale: 0})
	} else {
		r.Uniform(0, 1)
		r.Uniform(0, 1)
	}
	if u := r.Float64(); e.cfg.CorruptProb > 0 && u < e.cfg.CorruptProb {
		p.Corrupt = Corruption(1 + r.Intn(3))
	} else {
		r.Intn(3)
	}
	return p
}

// DropIter returns the iteration after which the client vanishes (0 = none).
func (p *Plan) DropIter() int {
	if p == nil {
		return 0
	}
	return p.Drop
}

// ComputeFactor returns the extra compute slowdown of iteration iter
// (1-based), layered multiplicatively on the client's speed trace.
func (p *Plan) ComputeFactor(iter int) float64 {
	if p == nil || p.Slow.Factor <= 1 || iter < p.Slow.From || iter > p.Slow.To {
		return 1
	}
	return p.Slow.Factor
}

// Attempts returns the number of transmission attempts the next transfer
// needs (1 = first try succeeds). It consumes the plan's failure stream, so
// calls must happen in the client's deterministic transfer order.
func (p *Plan) Attempts() int {
	if p == nil || p.failProb <= 0 {
		return 1
	}
	attempts := 1
	for attempts <= p.maxRetries && p.xfer.Float64() < p.failProb {
		attempts++
	}
	return attempts
}

// CorruptDelta damages the update in place per the plan's corruption kind:
// NaN/Inf poison ~0.1% of coordinates (at least one), Explode scales the
// whole vector.
func (p *Plan) CorruptDelta(delta []float64) {
	if p == nil || p.Corrupt == CorruptNone || len(delta) == 0 {
		return
	}
	switch p.Corrupt {
	case CorruptExplode:
		for i := range delta {
			delta[i] *= p.explodeScale
		}
	case CorruptNaN, CorruptInf:
		bad := math.NaN()
		if p.Corrupt == CorruptInf {
			bad = math.Inf(1)
		}
		n := len(delta) / 1000
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			delta[p.poison.Intn(len(delta))] = bad
		}
	}
}

// Active reports whether the plan injects any fault this round.
func (p *Plan) Active() bool {
	return p != nil && (p.Drop > 0 || p.Slow.Factor > 1 || len(p.Up) > 0 ||
		len(p.Down) > 0 || p.Corrupt != CorruptNone || p.failProb > 0)
}
