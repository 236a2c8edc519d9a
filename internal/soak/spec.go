// Package soak is the long-horizon "production soak" harness: it drives a
// fedca.Federation through thousands of rounds under a rotating, seeded
// chaos + scenario schedule, evaluating pluggable invariant monitors as it
// goes and emitting a structured Report that names everything needed to
// reproduce a violation bit-for-bit (the phase's spec string and round).
//
// A soak schedule is a compact spec string: phases separated by '|', fields
// within a phase separated by ';', each field key=value:
//
//	name=calm;rounds=40|name=storm;rounds=60;chaos=drop=0.2,slow=0.3;quorum=2
//
// A phase's own keys are name, rounds, skipband, quarband and retryband;
// left out, they inherit the base phase (Config.Base). Every other key is a
// run key (fedca.Options.Set), applied onto a copy of the base run
// (Config.Run). Each executed phase is rendered back into one canonical
// spec — its own keys, then its run's text form, seed included — which
// alone rebuilds the exact federation that ran (RunPhase).
package soak

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fedca"
)

// DefaultSchedule is the built-in rotating chaos schedule: a calm baseline,
// a dropout/slowdown storm, flaky links with retransmission pressure, and a
// poisoning phase that quarantine must absorb. The runner cycles through it
// until the round budget is spent.
const DefaultSchedule = "name=calm;rounds=40" +
	"|name=storm;rounds=60;chaos=drop=0.2,slow=0.3,degrade=0.2;quorum=2" +
	"|name=flaky-links;rounds=60;chaos=outage=0.1,xfail=0.1,retries=4;quorum=1" +
	"|name=poison;rounds=60;chaos=corrupt=0.05,drop=0.1;quorum=2"

// Bounds of a schedule; the run keys' bounds are the run spec's.
const (
	maxSpecLen   = 8192
	maxPhases    = 64
	maxRounds    = 1_000_000
	maxNameLen   = 32
	maxBandValue = 1e9
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
	return strconv.FormatFloat(b.Lo, 'g', -1, 64) + ":" + strconv.FormatFloat(b.Hi, 'g', -1, 64)
}

// Phase is one segment of a soak schedule: its name and length, the
// acceptance bands its degradation rates must stay inside, and the run keys
// it sets. Zero-valued fields inherit the base phase via Resolve.
type Phase struct {
	Name   string
	Rounds int

	// Acceptance bands checked by the rates monitor at phase end:
	// skipped-rounds fraction, quarantined-updates fraction, and link
	// retries per round.
	SkipBand  Band
	QuarBand  Band
	RetryBand Band

	run string // the phase's run keys (key=value;…), for fedca.Options.Set
}

// defaultBase returns the base phase the runner resolves schedule phases
// against: 50 rounds with permissive-but-real acceptance bands.
func defaultBase() Phase {
	return Phase{
		Name:      "phase",
		Rounds:    50,
		SkipBand:  Band{0, 0.75},
		QuarBand:  Band{0, 0.75},
		RetryBand: Band{0, 1e6},
	}
}

// DefaultRun is the base run phases' run keys apply onto: a small, fast CNN
// workload over the paper's heterogeneous, dynamic client speeds.
func DefaultRun() fedca.Options {
	return fedca.Options{
		Model: "cnn", Scheme: "fedca", Clients: 4, LocalIters: 4, BatchSize: 8,
		TrainSamples: 256, TestSamples: 64, Alpha: 0.1, MinQuorum: 1,
		Heterogeneous: true, Dynamic: true,
	}
}

// ParseSchedule parses a '|'-separated schedule spec into its phases,
// unresolved (a zero field inherits the base phase), with their run keys
// checked onto a scratch run. Unnamed phases are named phase<i> by
// position, so schedules that differ only in field order parse identically.
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
	if strings.TrimSpace(spec) == "" {
		return p, fmt.Errorf("empty phase spec")
	}
	var run []string
	for _, field := range strings.Split(spec, ";") {
		key, val, _ := strings.Cut(field, "=")
		val = strings.TrimSpace(val)
		var err error
		switch key = strings.ToLower(strings.TrimSpace(key)); key {
		case "name":
			if p.Name = val; !validName(val) {
				err = fmt.Errorf("name %q: want 1-%d letters, digits, '-' or '_'", val, maxNameLen)
			}
		case "rounds":
			if p.Rounds, err = strconv.Atoi(val); err != nil || p.Rounds < 1 || p.Rounds > maxRounds {
				err = fmt.Errorf("rounds %q: want an integer in [1,%d]", val, maxRounds)
			}
		case "skipband":
			p.SkipBand, err = parseBand(key, val)
		case "quarband":
			p.QuarBand, err = parseBand(key, val)
		case "retryband":
			p.RetryBand, err = parseBand(key, val)
		default:
			run = append(run, field) // a run key: Set checks it
		}
		if err != nil {
			return p, err
		}
	}
	p.run = strings.Join(run, ";")
	var scratch fedca.Options
	return p, scratch.Set(p.run)
}

// Resolve fills a parsed phase's zero-valued fields from base and returns
// the concrete phase. base must itself be fully populated (defaultBase is).
func (p Phase) Resolve(base Phase) Phase {
	out := p
	if out.Name == "" {
		out.Name = "phase"
	}
	if out.Rounds == 0 {
		out.Rounds = base.Rounds
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

// options applies the phase's run keys onto a copy of base: the run the
// phase's federation is built from, before the soak sets its seed.
func (p Phase) options(base fedca.Options) (fedca.Options, error) {
	if err := base.Set(p.run); err != nil {
		return base, fmt.Errorf("soak: phase %s: %w", p.Name, err)
	}
	return base, nil
}

// validateResolved checks that the phase's own fields are concrete and
// inside the documented bounds.
func (p Phase) validateResolved() error {
	switch {
	case !validName(p.Name):
		return fmt.Errorf("soak: phase name %q invalid", p.Name)
	case p.Rounds < 1 || p.Rounds > maxRounds:
		return fmt.Errorf("soak: phase %s: rounds %d outside [1,%d]", p.Name, p.Rounds, maxRounds)
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

// Spec renders the phase and its run as one canonical spec string: the
// phase's own keys in fixed order, then run's text form, seed included.
// It is the reproduction recipe a Report records per phase.
func (p Phase) Spec(run fedca.Options) string {
	return "name=" + p.Name +
		";rounds=" + strconv.Itoa(p.Rounds) +
		";skipband=" + p.SkipBand.String() +
		";quarband=" + p.QuarBand.String() +
		";retryband=" + p.RetryBand.String() +
		";" + run.String()
}

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

func parseBand(key, val string) (Band, error) {
	loS, hiS, _ := strings.Cut(val, ":")
	lo, loErr := strconv.ParseFloat(loS, 64)
	hi, hiErr := strconv.ParseFloat(hiS, 64)
	b := Band{Lo: lo, Hi: hi}
	if loErr != nil || hiErr != nil || validBand(b) != nil {
		return Band{}, fmt.Errorf("%s %q: want LO:HI with 0 <= LO <= HI <= %v", key, val, float64(maxBandValue))
	}
	return b, nil
}
