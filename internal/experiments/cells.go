package experiments

import (
	"fmt"

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

// address is the cell's executor address at (s, seed): its run's canonical
// spec string and the rounds it trains (for a probe, the rounds it probes).
// Cells that run the same spec share an address, whatever their names and
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
	return key, nil
}

// conv is a registered scheme's convergence run on a workload (Fig. 7,
// Table 1, Fig. 9). Only the scheme differs between the conv cells of one
// seed, as in the paper's testbed.
func conv(model, scheme string) cellSpec {
	return cellSpec{name: scheme, spec: "model=" + model + ";scheme=" + scheme}
}

// cnnTarget prepends the CNN FedAvg run the CNN target is read from.
func cnnTarget(cells ...cellSpec) []cellSpec {
	return append([]cellSpec{conv("cnn", "fedavg")}, cells...)
}

// custom is a CNN run of a registered scheme with the overrides spec, under
// its own name: an extension's variant or a FedCA ablation. Where spec sets
// only defaults it is the conv cell of that scheme.
func custom(name, scheme, spec string) cellSpec {
	return cellSpec{name: name, spec: "model=cnn;scheme=" + scheme + ";" + spec}
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

// runCell trains cell c at (s, seed), the one way any cell trains. A
// scheme's cell trains its spec's Options.NewRun, the run fedca-sim -spec
// replays, and keeps a FedCA run's tally; the curve probe trains on its
// spec's lowering (probeRun).
func runCell(s Scale, seed uint64, c cellSpec) (convRun, error) {
	o, err := c.options(s, seed)
	if err != nil {
		return convRun{}, err
	}
	if c.probe {
		w, tcfg, err := o.Lower()
		if err != nil {
			return convRun{}, err
		}
		return probeRun(s, o, w, tcfg)
	}
	runner, err := o.NewRun()
	if err != nil {
		return convRun{}, err
	}
	run := convRun{Results: trainRounds(runner, s.Rounds)}
	if _, ok := runner.Scheme.(*core.Scheme); ok {
		st := runner.Stats()
		run.Stats = &st
	}
	return run, nil
}

// probeRun trains the curve probe, FedAvg recording Figs. 2–5's curves, on
// the testbed of the lowered run (w, tcfg) through the probed rounds, and
// snapshots the curves.
func probeRun(s Scale, o expcfg.Options, w expcfg.Workload, tcfg trace.Config) (convRun, error) {
	probe := newProbeScheme(s, o)
	runner, err := expcfg.Build(w, o.Clients, tcfg, o.Seed).NewRunner(probe)
	if err != nil {
		return convRun{}, err
	}
	return convRun{
		Results: trainRounds(runner, s.LateRound+s.Window),
		Curves:  &CurveData{LayerNames: probe.names, LayerSizes: probe.sizes, Probes: probe.out},
	}, nil
}

// trainRounds runs n rounds of runner.
func trainRounds(runner *fl.Runner, n int) []fl.RoundResult {
	results := make([]fl.RoundResult, n)
	for i := range results {
		results[i] = runner.RunRound()
	}
	return results
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
