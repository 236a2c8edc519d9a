// Package soak is the long-horizon "production soak" harness: it drives a
// fedca.Federation through thousands of rounds under a rotating, seeded
// chaos + scenario schedule, evaluating pluggable invariant monitors as it
// goes and emitting a structured Report that names everything needed to
// reproduce a violation bit-for-bit (phase spec string, seed, round).
//
// A soak schedule is a compact spec string: phases separated by '|', fields
// within a phase separated by ';', each field key=value:
//
//	name=calm;rounds=40|name=storm;rounds=60;chaos=drop=0.2,slow=0.3;quorum=2
//
// Fields left out of a phase inherit the runner's base phase (DefaultBase or
// Config.Base). Every phase the runner executes is rendered back into a
// fully-resolved canonical spec string — one reproducible spec per phase —
// so a violation's Spec + Seed alone rebuild the exact federation that
// misbehaved (see RunPhase).
package soak

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fedca/internal/chaos"
)

// DefaultSchedule is the built-in rotating chaos schedule: a calm baseline,
// a dropout/slowdown storm, flaky links with retransmission pressure, and a
// poisoning phase with quarantine active. The runner cycles through it until
// the round budget is spent.
const DefaultSchedule = "name=calm;rounds=40" +
	"|name=storm;rounds=60;chaos=drop=0.2,slow=0.3,degrade=0.2;quorum=2" +
	"|name=flaky-links;rounds=60;chaos=outage=0.1,xfail=0.1,retries=4;quorum=1" +
	"|name=poison;rounds=60;chaos=corrupt=0.05,drop=0.1;maxnorm=1e6;quorum=2"

// Parser hardening bounds: a spec is operator input (flags, CI config,
// fuzzers), so every numeric field is range-checked and every float is
// required finite. Overflowing, NaN or Inf "durations" are rejected, never
// silently clamped.
const (
	maxSpecLen   = 8192
	maxPhases    = 64
	maxRounds    = 1_000_000
	maxClients   = 65_536
	maxIters     = 1_000_000
	maxSamples   = 1 << 27
	maxQuorum    = 1_000_000
	maxNameLen   = 32
	maxBandValue = 1e9
	maxAlpha     = 1e6
	maxNormBound = 1e30
)

// Band is an inclusive [Lo, Hi] acceptance band for a monitored rate. The
// zero band means "unset" in a parsed phase (the base band applies); after
// Resolve every band is concrete.
type Band struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

func (b Band) set() bool { return b.Lo != 0 || b.Hi != 0 }

// Contains reports whether v falls inside the band.
func (b Band) Contains(v float64) bool { return v >= b.Lo && v <= b.Hi }

func (b Band) String() string {
	return formatFloat(b.Lo) + ":" + formatFloat(b.Hi)
}

// Phase is one segment of a soak schedule: a workload configuration, a chaos
// spec, and the acceptance bands its degradation rates must stay inside.
// Zero-valued fields of a parsed phase inherit the base phase via Resolve.
type Phase struct {
	Name   string
	Rounds int

	// Workload knobs (fedca.Options subset).
	Model   string
	Scheme  string
	Clients int
	Iters   int // local iterations per round (K)
	Batch   int
	Train   int // synthetic training samples
	Test    int // synthetic test samples
	Alpha   float64

	// Fault injection and degradation policy.
	Chaos   string // chaos.ParseSpec format; "none" = no injection
	Quorum  int
	MaxNorm float64

	// Acceptance bands checked by the rates monitor at phase end:
	// skipped-rounds fraction, quarantined-updates fraction, and link
	// retries per round.
	SkipBand  Band
	QuarBand  Band
	RetryBand Band
}

// DefaultBase returns the base phase the runner resolves schedule phases
// against: a small, fast CNN workload (so thousands of rounds stay cheap)
// with permissive-but-real acceptance bands.
func DefaultBase() Phase {
	return Phase{
		Name:      "phase",
		Rounds:    50,
		Model:     "cnn",
		Scheme:    "fedca",
		Clients:   4,
		Iters:     4,
		Batch:     8,
		Train:     256,
		Test:      64,
		Alpha:     0.1,
		Chaos:     "none",
		Quorum:    1,
		SkipBand:  Band{0, 0.75},
		QuarBand:  Band{0, 0.75},
		RetryBand: Band{0, 1e6},
	}
}

// ParseSchedule parses a '|'-separated schedule spec into its phases.
// Phases are returned unresolved: zero-valued fields mean "inherit the base
// phase". Unnamed phases are named phase<i> by position, so two schedules
// that differ only in field order parse identically.
func ParseSchedule(spec string) ([]Phase, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("soak: empty schedule spec")
	}
	if len(spec) > maxSpecLen {
		return nil, fmt.Errorf("soak: schedule spec longer than %d bytes", maxSpecLen)
	}
	parts := strings.Split(spec, "|")
	if len(parts) > maxPhases {
		return nil, fmt.Errorf("soak: schedule has %d phases, max %d", len(parts), maxPhases)
	}
	phases := make([]Phase, 0, len(parts))
	for i, part := range parts {
		p, err := parsePhase(part)
		if err != nil {
			return nil, fmt.Errorf("soak: phase %d: %w", i, err)
		}
		if p.Name == "" {
			p.Name = "phase" + strconv.Itoa(i)
		}
		phases = append(phases, p)
	}
	return phases, nil
}

func parsePhase(spec string) (Phase, error) {
	var p Phase
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, fmt.Errorf("empty phase spec")
	}
	for _, field := range strings.Split(spec, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return p, fmt.Errorf("field %q is not key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "name":
			if !validName(val) {
				return p, fmt.Errorf("name %q: want 1-%d letters, digits, '-' or '_'", val, maxNameLen)
			}
			p.Name = val
		case "rounds":
			p.Rounds, err = parseInt(key, val, 1, maxRounds)
		case "model":
			if !validName(val) {
				return p, fmt.Errorf("model %q is not a valid name", val)
			}
			p.Model = val
		case "scheme":
			if !validName(val) {
				return p, fmt.Errorf("scheme %q is not a valid name", val)
			}
			p.Scheme = val
		case "clients":
			p.Clients, err = parseInt(key, val, 1, maxClients)
		case "iters":
			p.Iters, err = parseInt(key, val, 1, maxIters)
		case "batch":
			p.Batch, err = parseInt(key, val, 1, maxIters)
		case "train":
			p.Train, err = parseInt(key, val, 1, maxSamples)
		case "test":
			p.Test, err = parseInt(key, val, 1, maxSamples)
		case "alpha":
			p.Alpha, err = parseFiniteFloat(key, val, 0, maxAlpha)
		case "chaos":
			if _, cerr := chaos.ParseSpec(val); cerr != nil {
				return p, cerr
			}
			if val == "" {
				val = "none"
			}
			p.Chaos = val
		case "quorum":
			p.Quorum, err = parseInt(key, val, 0, maxQuorum)
		case "maxnorm":
			p.MaxNorm, err = parseFiniteFloat(key, val, 0, maxNormBound)
		case "skipband":
			p.SkipBand, err = parseBand(key, val)
		case "quarband":
			p.QuarBand, err = parseBand(key, val)
		case "retryband":
			p.RetryBand, err = parseBand(key, val)
		default:
			return p, fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// Resolve fills a parsed phase's zero-valued fields from base and returns
// the concrete phase. base must itself be fully populated (DefaultBase is).
func (p Phase) Resolve(base Phase) Phase {
	out := p
	if out.Name == "" {
		out.Name = "phase"
	}
	if out.Rounds == 0 {
		out.Rounds = base.Rounds
	}
	if out.Model == "" {
		out.Model = base.Model
	}
	if out.Scheme == "" {
		out.Scheme = base.Scheme
	}
	if out.Clients == 0 {
		out.Clients = base.Clients
	}
	if out.Iters == 0 {
		out.Iters = base.Iters
	}
	if out.Batch == 0 {
		out.Batch = base.Batch
	}
	if out.Train == 0 {
		out.Train = base.Train
	}
	if out.Test == 0 {
		out.Test = base.Test
	}
	if out.Alpha == 0 {
		out.Alpha = base.Alpha
	}
	if out.Chaos == "" {
		out.Chaos = base.Chaos
	}
	if out.Chaos == "" {
		out.Chaos = "none"
	}
	if out.Quorum == 0 {
		out.Quorum = base.Quorum
	}
	if out.MaxNorm == 0 {
		out.MaxNorm = base.MaxNorm
	}
	if !out.SkipBand.set() {
		out.SkipBand = base.SkipBand
	}
	if !out.QuarBand.set() {
		out.QuarBand = base.QuarBand
	}
	if !out.RetryBand.set() {
		out.RetryBand = base.RetryBand
	}
	return out
}

// validateResolved checks that every field a runnable phase needs is
// concrete and inside the documented bounds.
func (p Phase) validateResolved() error {
	switch {
	case !validName(p.Name):
		return fmt.Errorf("soak: phase name %q invalid", p.Name)
	case p.Rounds < 1 || p.Rounds > maxRounds:
		return fmt.Errorf("soak: phase %s: rounds %d outside [1,%d]", p.Name, p.Rounds, maxRounds)
	case p.Model == "" || p.Scheme == "":
		return fmt.Errorf("soak: phase %s: model/scheme unset", p.Name)
	case p.Clients < 1 || p.Clients > maxClients:
		return fmt.Errorf("soak: phase %s: clients %d outside [1,%d]", p.Name, p.Clients, maxClients)
	case p.Iters < 1 || p.Batch < 1 || p.Train < 1 || p.Test < 1:
		return fmt.Errorf("soak: phase %s: non-positive iters/batch/train/test", p.Name)
	case !(p.Alpha > 0) || p.Alpha > maxAlpha:
		return fmt.Errorf("soak: phase %s: alpha %v outside (0,%v]", p.Name, p.Alpha, float64(maxAlpha))
	case p.Quorum < 0 || p.MaxNorm < 0:
		return fmt.Errorf("soak: phase %s: negative quorum/maxnorm", p.Name)
	}
	if _, err := chaos.ParseSpec(p.Chaos); err != nil {
		return fmt.Errorf("soak: phase %s: %w", p.Name, err)
	}
	for _, b := range []struct {
		name string
		b    Band
	}{{"skipband", p.SkipBand}, {"quarband", p.QuarBand}, {"retryband", p.RetryBand}} {
		if err := validBand(b.b); err != nil {
			return fmt.Errorf("soak: phase %s: %s: %w", p.Name, b.name, err)
		}
	}
	return nil
}

// Spec renders the phase as a fully-resolved canonical spec string: every
// field explicit, fixed order, shortest round-trip float form. Parsing it
// back (and resolving against any base) reproduces this phase exactly —
// it is the reproduction recipe a Report records per phase.
func (p Phase) Spec() string {
	chaosSpec := p.Chaos
	if chaosSpec == "" {
		chaosSpec = "none"
	}
	return "name=" + p.Name +
		";rounds=" + strconv.Itoa(p.Rounds) +
		";model=" + p.Model +
		";scheme=" + p.Scheme +
		";clients=" + strconv.Itoa(p.Clients) +
		";iters=" + strconv.Itoa(p.Iters) +
		";batch=" + strconv.Itoa(p.Batch) +
		";train=" + strconv.Itoa(p.Train) +
		";test=" + strconv.Itoa(p.Test) +
		";alpha=" + formatFloat(p.Alpha) +
		";chaos=" + chaosSpec +
		";quorum=" + strconv.Itoa(p.Quorum) +
		";maxnorm=" + formatFloat(p.MaxNorm) +
		";skipband=" + p.SkipBand.String() +
		";quarband=" + p.QuarBand.String() +
		";retryband=" + p.RetryBand.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func validName(s string) bool {
	if s == "" || len(s) > maxNameLen {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

func validBand(b Band) error {
	switch {
	case math.IsNaN(b.Lo) || math.IsNaN(b.Hi) || math.IsInf(b.Lo, 0) || math.IsInf(b.Hi, 0):
		return fmt.Errorf("band %v:%v not finite", b.Lo, b.Hi)
	case b.Lo < 0 || b.Hi < b.Lo || b.Hi > maxBandValue:
		return fmt.Errorf("band %v:%v wants 0 <= lo <= hi <= %v", b.Lo, b.Hi, float64(maxBandValue))
	}
	return nil
}

func parseInt(key, val string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(val)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", key, val)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s=%d outside [%d,%d]", key, v, lo, hi)
	}
	return v, nil
}

func parseFiniteFloat(key, val string, lo, hi float64) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", key, val)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s=%v is not finite", key, v)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s=%v outside [%v,%v]", key, v, lo, hi)
	}
	return v, nil
}

func parseBand(key, val string) (Band, error) {
	loS, hiS, ok := strings.Cut(val, ":")
	if !ok {
		return Band{}, fmt.Errorf("%s wants LO:HI, got %q", key, val)
	}
	lo, err := parseFiniteFloat(key, loS, 0, maxBandValue)
	if err != nil {
		return Band{}, err
	}
	hi, err := parseFiniteFloat(key, hiS, 0, maxBandValue)
	if err != nil {
		return Band{}, err
	}
	b := Band{Lo: lo, Hi: hi}
	if err := validBand(b); err != nil {
		return Band{}, err
	}
	return b, nil
}
