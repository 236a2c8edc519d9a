package experiments

import (
	"fmt"

	"fedca/internal/core"
	"fedca/internal/execpool"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/trace"
)

// cellSpec declares one cell. kind, model and name are its cache identity
// (the key adds the Scale and the seed); the other fields say how it
// trains. A spec with a scheme trains that registered scheme for
// Scale.Rounds rounds; a spec without one runs the curve probe.
type cellSpec struct {
	kind, model, name string

	scheme    string                 // expcfg.SchemeByName name; "" is the probe
	fork      []any                  // RNG fork label of the FedCA variants
	fedca     func(*core.Options)    // edits to the scale's FedCA options
	edit      func(*expcfg.Workload) // edits to the scale's workload
	sampleCap int                    // the curve probe's per-layer sample cap
}

// spec is the cell's executor address at (s, seed). Scale.cellKey encodes
// every Scale field, so scales that share a name never collide.
func (c cellSpec) spec(s Scale, seed uint64) execpool.Spec {
	key := fmt.Sprintf("%s/%s/%s/%d", s.cellKey(), c.model, c.name, seed)
	if c.name == "" {
		key = fmt.Sprintf("%s/%s/%d", s.cellKey(), c.model, seed)
	}
	return execpool.Spec{Kind: c.kind, Key: key}
}

// conv is a registered scheme's convergence run on a workload (Fig. 7,
// Table 1, Fig. 9). Only the scheme differs between the conv cells of one
// seed, as in the paper's testbed.
func conv(model, scheme string) cellSpec {
	return cellSpec{kind: "conv", model: model, name: scheme, scheme: scheme, fork: []any{"scheme", scheme}}
}

// cnnVariant is FedCA's CNN convergence run with edited options, keyed
// "fedca"+variant. It draws the same stream as conv("cnn", "fedca").
func cnnVariant(variant string, edit func(*core.Options)) cellSpec {
	c := conv("cnn", "fedca")
	c.name += variant
	c.fedca = edit
	return c
}

// cnnTarget prepends the CNN FedAvg run the CNN target is read from.
func cnnTarget(cells ...cellSpec) []cellSpec {
	return append([]cellSpec{conv("cnn", "fedavg")}, cells...)
}

// custom is an extension's CNN run of a registered scheme under its own key.
func custom(name, scheme string, edit func(*expcfg.Workload), fork ...any) cellSpec {
	return cellSpec{kind: "custom", model: "cnn", name: name, scheme: scheme, fork: fork, edit: edit}
}

// curves is a workload's curve-probe sweep (Figs. 2–5).
func curves(model string) cellSpec {
	return cellSpec{kind: "curves", model: model, sampleCap: core.DefaultSampleCap}
}

// grid is one conv cell per (model, scheme), models outermost.
func grid(models, schemes []string) []cellSpec {
	var cells []cellSpec
	for _, m := range models {
		for _, scheme := range schemes {
			cells = append(cells, conv(m, scheme))
		}
	}
	return cells
}

// each maps xs to one cell apiece.
func each[T any](xs []T, cell func(T) cellSpec) []cellSpec {
	cells := make([]cellSpec, len(xs))
	for i, x := range xs {
		cells[i] = cell(x)
	}
	return cells
}

// convRun is one scheme's full training run on one workload. It is a plain
// data snapshot (no live scheme pointers), so cells carrying it serialize
// into the cross-process result cache.
type convRun struct {
	SchemeName string
	Results    []fl.RoundResult
	// Stats is set when the scheme is a FedCA variant, exposing behavioural
	// stats (Fig. 8); nil for baselines.
	Stats *core.SchemeStats
}

// runCell is the package's one training loop. It builds the scale's
// workload and applies the spec's edits, builds the scheme, a testbed and a
// runner, runs the rounds, then snapshots the scheme's stats. A curve probe
// also returns its curves.
func runCell(s Scale, seed uint64, c cellSpec) (convRun, *CurveData, error) {
	w, err := s.Workload(c.model)
	if err != nil {
		return convRun{}, nil, err
	}
	if c.edit != nil {
		c.edit(&w)
	}
	var (
		sch    fl.Scheme
		probe  *probeScheme
		tcfg   = s.TraceConfig()
		rounds = s.Rounds
	)
	if c.scheme == "" {
		// Curve probing studies statistics, not timing: homogeneous static
		// speeds keep the run fast and change nothing about trajectories.
		probe = newProbeScheme(s, seed, c.sampleCap)
		sch, tcfg, rounds = probe, trace.Config{}, s.LateRound+s.Window
	} else {
		opt := s.FedCAOptions()
		if c.fedca != nil {
			c.fedca(&opt)
		}
		if sch, err = expcfg.SchemeByName(c.scheme, &w.FL, opt, seed, c.fork...); err != nil {
			return convRun{}, nil, err
		}
	}
	runner, err := expcfg.Build(w, s.Clients, tcfg, seed).NewRunner(sch)
	if err != nil {
		return convRun{}, nil, err
	}
	run := convRun{SchemeName: c.name, Results: make([]fl.RoundResult, 0, rounds)}
	for i := 0; i < rounds; i++ {
		run.Results = append(run.Results, runner.RunRound())
	}
	if _, ok := sch.(*core.Scheme); ok {
		st := runner.SchemeStats()
		run.Stats = &st
	}
	if probe != nil {
		return run, &CurveData{ModelName: w.Name, K: w.FL.LocalIters, LayerNames: probe.names, LayerSizes: probe.sizes, Probes: probe.out}, nil
	}
	return run, nil, nil
}

// inputs reads the results of cells at (s, seed) through the executor: a
// renderer reads its experiment's cells, which Run has prefetched, so each
// read is a memory hit. The first error is kept; Run returns it instead of
// the Result.
type inputs struct {
	s    Scale
	seed uint64
	err  error
}

// fail keeps err unless an error is already kept, and returns the nil Result
// a renderer gives up with.
func (in *inputs) fail(err error) *Result {
	if in.err == nil {
		in.err = err
	}
	return nil
}

func (in *inputs) conv(c cellSpec) convRun {
	run, err := execpool.Do(pool(), c.spec(in.s, in.seed), func() (convRun, error) {
		run, _, err := runCell(in.s, in.seed, c)
		return run, err
	})
	in.fail(err)
	return run
}

func (in *inputs) curves(c cellSpec) *CurveData {
	cd, err := execpool.Do(pool(), c.spec(in.s, in.seed), func() (*CurveData, error) {
		_, cd, err := runCell(in.s, in.seed, c)
		return cd, err
	})
	in.fail(err)
	return cd
}

// target defines each workload's "near-optimal accuracy" target at this
// scale: 90% of the best accuracy plain FedAvg reaches within the round
// budget. The paper picks absolute numbers (0.55/0.85/0.55) for its real
// datasets; a relative definition transfers the same notion to the synthetic
// ones and keeps every scheme judged against one common bar.
func (in *inputs) target(model string) float64 {
	best := 0.0
	for _, r := range in.conv(conv(model, "fedavg")).Results {
		if r.Accuracy > best {
			best = r.Accuracy
		}
	}
	return 0.9 * best
}
