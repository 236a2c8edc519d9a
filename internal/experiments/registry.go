package experiments

import (
	"fmt"
	"sort"

	"fedca/internal/execpool"
)

// experiment is one regenerable paper artifact: the cells it trains, as
// data, and the renderer that turns their results into a Result.
type experiment struct {
	cells  []cellSpec
	render func(in *inputs) *Result
}

// registry maps experiment ids (DESIGN.md's per-experiment index) to their
// experiments. Run prefetches an entry's cells in parallel before rendering
// it, and fedca-bench -list prints them; a new run of an experiment is one
// more cell in its row.
var registry = map[string]experiment{
	"fig2":   {curveCells, fig2},
	"fig3":   {curveCells, fig3},
	"fig4":   {curveCells, fig4},
	"fig5":   {curveCells, fig5},
	"fig7":   {grid(curveModels, convergenceSchemes), fig7},
	"table1": {grid(curveModels, convergenceSchemes), table1},
	"fig8a":  {[]cellSpec{conv("cnn", "fedca"), conv("cnn", "fedada")}, fig8a},
	"fig8b":  {[]cellSpec{conv("cnn", "fedca"), conv("cnn", "fedca-v2")}, fig8b},
	"fig9":   {grid(fig9Models, fig9Schemes), fig9},
	"fig10a": {cnnTarget(each(betas, betaCell)...), fig10a},
	"fig10b": {cnnTarget(each(thresholds, thresholdCell)...), fig10b},
	"ovh":    {nil, overhead},

	// Design-choice ablations beyond the paper (DESIGN.md §5).
	"abl-floor":    {cnnTarget(each(floorOff, floorCell)...), ablationFloor},
	"abl-sampling": {append([]cellSpec{curves("cnn")}, each(sampleCaps, capCell)...), ablationSampling},
	"abl-period":   {cnnTarget(each(periods, periodCell)...), ablationPeriod},
	"abl-deadline": {cnnTarget(each(deadlineRules, ruleCell)...), ablationDeadline},

	// Extensions: Sec. 2.2's orthogonal methods as working comparators and
	// the Sec. 6 future-work hyperparameter autonomy.
	"ext-compress":  {compressCells, extCompress},
	"ext-selection": {selectionCells, extSelection},
	"ext-hp":        {hpCells, extHyperparam},
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func lookup(id string) (experiment, error) {
	e, ok := registry[id]
	if !ok {
		return e, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// Cells lists the cells experiment id trains at (s, seed), as the executor
// addresses them, in declaration order.
func Cells(id string, s Scale, seed uint64) ([]execpool.Spec, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	specs := make([]execpool.Spec, len(e.cells))
	for i, c := range e.cells {
		specs[i] = c.spec(s, seed)
	}
	return specs, nil
}

// Run regenerates one experiment by id: its cells in parallel, then its
// rendering from their memoized results. A cell that fails — an unknown
// model or scheme, a configuration the runner rejects — fails the run.
func Run(id string, s Scale, seed uint64) (*Result, error) {
	e, err := lookup(id)
	if err != nil {
		return nil, err
	}
	if err := prefetch(s, seed, e.cells); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	in := &inputs{s: s, seed: seed}
	res := e.render(in)
	if in.err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, in.err)
	}
	return res, nil
}
