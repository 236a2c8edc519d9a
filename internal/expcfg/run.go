package expcfg

import (
	"fmt"

	"fedca/internal/chaos"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

// RunSpec names the parts of one run that NewRun resolves: the scheme, the
// fault injection, the upload compressor and the population.
type RunSpec struct {
	// Scheme is a SchemeByName name; FedCA holds the FedCA variants'
	// hyperparameters (zero options mean core.DefaultOptions).
	Scheme string
	FedCA  core.Options
	// Chaos is a chaos.ParseSpec spec and Compress a compress.ByName spec;
	// "" or "none" disables either.
	Chaos, Compress string
	// Clients sizes a static testbed (Build). Fleet, when positive, builds a
	// virtual fleet of that size instead (BuildFleet) and Clients is ignored.
	Clients, Fleet int
	// Trace is the client speed model; Seed drives every random draw.
	Trace trace.Config
	Seed  uint64
}

// NewRun assembles a ready-to-run fl.Runner for workload w: it installs the
// chaos engine (seeded from Fork("chaos-engine")) and the compressor in
// w.FL, resolves the scheme (fork label "scheme"), then builds the testbed
// and the runner. The scheme is resolved first because it may write into
// the config (Oort sets Participation). Everything a caller reports about
// the run — its chaos spec, compressor, participation — reads back from
// the runner's Cfg, and the scheme from its Scheme field.
func NewRun(w Workload, s RunSpec) (*fl.Runner, error) {
	if s.Fleet <= 0 && s.Clients <= 0 {
		return nil, fmt.Errorf("expcfg: Clients must be positive unless Fleet > 0")
	}
	ccfg, err := chaos.ParseSpec(s.Chaos)
	if err != nil {
		return nil, err
	}
	if ccfg.Enabled() {
		if w.FL.Chaos, err = chaos.NewEngine(ccfg, rng.New(s.Seed).Fork("chaos-engine").Uint64()); err != nil {
			return nil, err
		}
	}
	comp, err := compress.ByName(s.Compress)
	if err != nil {
		return nil, err
	}
	if _, isNone := comp.(compress.None); !isNone {
		w.FL.Compressor = comp
	}
	scheme, err := SchemeByName(s.Scheme, &w.FL, s.FedCA, s.Seed, "scheme")
	if err != nil {
		return nil, err
	}
	if s.Fleet > 0 {
		tb, err := BuildFleet(w, s.Fleet, 0, s.Trace, s.Seed)
		if err != nil {
			return nil, err
		}
		return tb.NewRunner(scheme)
	}
	return Build(w, s.Clients, s.Trace, s.Seed).NewRunner(scheme)
}
