package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec builds a Config from a compact comma-separated spec, the format
// the fedca-sim -chaos flag and the library facade accept:
//
//	drop=0.1,slow=0.3,degrade=0.2,outage=0.05,xfail=0.02,corrupt=0.01
//
// Probability keys (all per client-round unless noted): drop, slow, degrade,
// outage, corrupt, and xfail (per transfer attempt). Shape keys:
// slowfactor=LO:HI, slowfrac=F, scale=LO:HI (degraded bandwidth),
// outagefrac=LO:HI, retries=N, explode=S. Omitted shapes use the defaults
// documented on Config. An empty spec (or "none") yields a disabled Config.
// Every Config it returns is validated, so two specs of one fault schedule
// (say "none" and "drop=0") yield equal Configs.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if spec = strings.TrimSpace(spec); spec == "none" {
		spec = ""
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return c, fmt.Errorf("chaos: spec entry %q is not key=value", part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "drop":
			c.DropProb, err = parseProb(key, val)
		case "slow":
			c.SlowProb, err = parseProb(key, val)
		case "degrade":
			c.DegradeProb, err = parseProb(key, val)
		case "outage":
			c.OutageProb, err = parseProb(key, val)
		case "xfail":
			c.XferFailProb, err = parseProb(key, val)
		case "corrupt":
			c.CorruptProb, err = parseProb(key, val)
		case "slowfactor":
			c.SlowFactorLo, c.SlowFactorHi, err = parseRange(key, val)
		case "slowfrac":
			c.SlowFrac, err = parseFloat(key, val)
		case "scale":
			c.DegradeScaleLo, c.DegradeScaleHi, err = parseRange(key, val)
		case "outagefrac":
			c.OutageFracLo, c.OutageFracHi, err = parseRange(key, val)
		case "retries":
			c.XferMaxRetries, err = strconv.Atoi(val)
		case "explode":
			c.ExplodeScale, err = parseFloat(key, val)
		default:
			return c, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return c, err
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Spec renders the config back into ParseSpec's format, canonically: the
// nonzero probabilities, then every shape parameter that differs from its
// default, or "none" when that leaves nothing. ParseSpec of it yields the
// same validated Config, so it reproduces the same fault schedule.
func (c Config) Spec() string {
	var def Config
	_ = def.Validate() // the shape defaults
	_ = c.Validate()   // unset shapes take them too
	var parts []string
	add := func(key string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", key, v))
		}
	}
	add("drop", c.DropProb)
	add("slow", c.SlowProb)
	add("degrade", c.DegradeProb)
	add("outage", c.OutageProb)
	add("xfail", c.XferFailProb)
	add("corrupt", c.CorruptProb)
	shape := func(key string, v, d float64) {
		if v != d {
			parts = append(parts, fmt.Sprintf("%s=%v", key, v))
		}
	}
	span := func(key string, lo, hi, dlo, dhi float64) {
		if lo != dlo || hi != dhi {
			parts = append(parts, fmt.Sprintf("%s=%v:%v", key, lo, hi))
		}
	}
	span("slowfactor", c.SlowFactorLo, c.SlowFactorHi, def.SlowFactorLo, def.SlowFactorHi)
	shape("slowfrac", c.SlowFrac, def.SlowFrac)
	span("scale", c.DegradeScaleLo, c.DegradeScaleHi, def.DegradeScaleLo, def.DegradeScaleHi)
	span("outagefrac", c.OutageFracLo, c.OutageFracHi, def.OutageFracLo, def.OutageFracHi)
	if c.XferMaxRetries != def.XferMaxRetries {
		parts = append(parts, fmt.Sprintf("retries=%d", c.XferMaxRetries))
	}
	shape("explode", c.ExplodeScale, def.ExplodeScale)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

func parseProb(key, val string) (float64, error) {
	v, err := parseFloat(key, val)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("chaos: %s must be in [0,1], got %v", key, v)
	}
	return v, nil
}

func parseFloat(key, val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("chaos: bad %s value %q", key, val)
	}
	return v, nil
}

func parseRange(key, val string) (lo, hi float64, err error) {
	loS, hiS, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("chaos: %s wants LO:HI, got %q", key, val)
	}
	if lo, err = parseFloat(key, loS); err != nil {
		return 0, 0, err
	}
	if hi, err = parseFloat(key, hiS); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
