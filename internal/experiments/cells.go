package experiments

import (
	"fmt"
	"strings"

	"fedca/internal/core"
	"fedca/internal/execpool"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/trace"
)

// cellSpec declares one cell: the run of the scale's Base plus spec, trained
// for Scale.Rounds rounds, or the curve probe of that run. name labels the
// cell's row in its experiment; the run's canonical text is its cache
// identity (address).
type cellSpec struct {
	name  string
	spec  string // key=value overrides of the scale's Base: model=…;scheme=…;…
	label []any  // RNG fork label of a FedCA variant; nil is NewRun's "scheme"
	probe bool   // the curve probe instead of the scheme's training run
}

// options is the cell's run at (s, seed): the scale's Base at seed with the
// cell's overrides applied.
func (c cellSpec) options(s Scale, seed uint64) (expcfg.Options, error) {
	o := s.Base
	o.Seed = seed
	err := o.Set(c.spec)
	return o, err
}

// address is the cell's executor address at (s, seed): a key of its run's
// canonical spec string, the rounds it trains (for a probe, the rounds it
// probes) and its fork label when it has one. Cells that run the same spec
// under the same label share an address, whatever their names and
// experiments, so the suite trains each such run once.
func (c cellSpec) address(s Scale, seed uint64) (string, error) {
	o, err := c.options(s, seed)
	if err != nil {
		return "", err
	}
	key := fmt.Sprintf("%s rounds=%d", o, s.Rounds)
	if c.probe {
		key = fmt.Sprintf("%s early=%d late=%d window=%d", o, s.EarlyRound, s.LateRound, s.Window)
	}
	if c.label != nil {
		key += fmt.Sprintf(" label=%v", c.label)
	}
	return key, nil
}

// conv is a registered scheme's convergence run on a workload (Fig. 7,
// Table 1, Fig. 9). Only the scheme differs between the conv cells of one
// seed, as in the paper's testbed. A FedCA variant draws from
// Fork("scheme", scheme).
func conv(model, scheme string) cellSpec {
	c := cellSpec{name: scheme, spec: "model=" + model + ";scheme=" + scheme}
	if strings.HasPrefix(scheme, "fedca") {
		c.label = []any{"scheme", scheme}
	}
	return c
}

// cnnVariant is FedCA's CNN convergence run with the FedCA overrides spec,
// named "fedca"+variant. It draws the same stream as conv("cnn", "fedca"),
// and is that cell where spec sets the defaults.
func cnnVariant(variant, spec string) cellSpec {
	c := conv("cnn", "fedca")
	c.name += variant
	c.spec += ";" + spec
	return c
}

// cnnTarget prepends the CNN FedAvg run the CNN target is read from.
func cnnTarget(cells ...cellSpec) []cellSpec {
	return append([]cellSpec{conv("cnn", "fedavg")}, cells...)
}

// custom is an extension's CNN run of a registered scheme with the
// overrides spec, under its own name and fork label.
func custom(name, scheme, spec string, label ...any) cellSpec {
	return cellSpec{name: name, spec: "model=cnn;scheme=" + scheme + ";" + spec, label: label}
}

// curves is a workload's curve-probe sweep (Figs. 2–5): FedAvg, recording.
// Curve probing studies statistics, not timing, so homogeneous static speeds
// keep the run fast and change nothing about trajectories.
func curves(model string) cellSpec {
	return cellSpec{name: model, spec: "model=" + model + ";scheme=fedavg;hetero=false;dynamic=false", probe: true}
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

// convRun is one cell's training run: its rounds, the run's tally for a
// FedCA variant (Fig. 8; nil for baselines) and a curve probe's curves (nil
// for a scheme's run). It is a plain data snapshot (no live scheme
// pointers), so it serializes into the cross-process result cache. It
// carries no name: one cached run can serve several cells, and each
// renderer labels its rows from its cells.
type convRun struct {
	Results []fl.RoundResult
	Stats   *fl.RunStats
	Curves  *CurveData
}

// records is the run's round records.
func (r convRun) records() []fl.RoundRecord {
	recs := make([]fl.RoundRecord, len(r.Results))
	for i, res := range r.Results {
		recs[i] = res.RoundRecord
	}
	return recs
}

// runCell is the package's one training loop: it lowers the cell's run
// with Options.Lower and trains it.
func runCell(s Scale, seed uint64, c cellSpec) (convRun, error) {
	o, err := c.options(s, seed)
	if err != nil {
		return convRun{}, err
	}
	w, tcfg, err := o.Lower()
	if err != nil {
		return convRun{}, err
	}
	return c.train(s, o, w, tcfg)
}

// train resolves the cell's scheme (SchemeByName under the cell's fork
// label, or the curve probe), builds the testbed and runner of the lowered
// run (w, tcfg), runs the rounds, then snapshots a FedCA run's tally or the
// probe's curves.
func (c cellSpec) train(s Scale, o expcfg.Options, w expcfg.Workload, tcfg trace.Config) (convRun, error) {
	var (
		sch    fl.Scheme
		probe  *probeScheme
		rounds = s.Rounds
		err    error
	)
	if c.probe {
		probe = newProbeScheme(s, o)
		sch, rounds = probe, s.LateRound+s.Window
	} else {
		fork := c.label
		if fork == nil {
			fork = []any{"scheme"}
		}
		if sch, err = expcfg.SchemeByName(o.Scheme, &w.FL, o.FedCA, o.Seed, fork...); err != nil {
			return convRun{}, err
		}
	}
	runner, err := expcfg.Build(w, o.Clients, tcfg, o.Seed).NewRunner(sch)
	if err != nil {
		return convRun{}, err
	}
	run := convRun{Results: make([]fl.RoundResult, 0, rounds)}
	for i := 0; i < rounds; i++ {
		run.Results = append(run.Results, runner.RunRound())
	}
	if _, ok := sch.(*core.Scheme); ok {
		st := runner.Stats()
		run.Stats = &st
	}
	if probe != nil {
		run.Curves = &CurveData{ModelName: w.Name, K: w.FL.LocalIters, LayerNames: probe.names, LayerSizes: probe.sizes, Probes: probe.out}
	}
	return run, nil
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

// run reads cell c's run through the executor, at c's address.
func (in *inputs) run(c cellSpec) convRun {
	addr, err := c.address(in.s, in.seed)
	var run convRun
	if err == nil {
		run, err = execpool.Do(pool(), addr, func() (convRun, error) { return runCell(in.s, in.seed, c) })
	}
	in.fail(err)
	return run
}

// workload is model's workload lowered at this scale (its curve probe's).
func (in *inputs) workload(model string) (expcfg.Workload, error) {
	o, err := curves(model).options(in.s, in.seed)
	if err != nil {
		return expcfg.Workload{}, err
	}
	w, _, err := o.Lower()
	return w, err
}

// target defines each workload's "near-optimal accuracy" target at this
// scale: 90% of the best accuracy plain FedAvg reaches within the round
// budget. The paper picks absolute numbers (0.55/0.85/0.55) for its real
// datasets; a relative definition transfers the same notion to the synthetic
// ones and keeps every scheme judged against one common bar.
func (in *inputs) target(model string) float64 {
	best := 0.0
	for _, r := range in.run(conv(model, "fedavg")).Results {
		if r.Accuracy > best {
			best = r.Accuracy
		}
	}
	return 0.9 * best
}
