package experiments

import (
	"fmt"
	"sort"
)

// Generator regenerates one paper artifact at a scale.
type Generator func(s Scale, seed uint64) *Result

// Registry maps experiment ids (DESIGN.md's per-experiment index) to their
// generators.
var Registry = map[string]Generator{
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig5":   Fig5,
	"fig7":   Fig7,
	"table1": Table1,
	"fig8a":  Fig8a,
	"fig8b":  Fig8b,
	"fig9":   Fig9,
	"fig10a": Fig10a,
	"fig10b": Fig10b,
	"ovh":    Overhead,

	// Design-choice ablations beyond the paper (DESIGN.md §5).
	"abl-floor":    AblationFloor,
	"abl-sampling": AblationSampling,
	"abl-period":   AblationPeriod,
	"abl-deadline": AblationDeadline,

	// Extensions: Sec. 2.2's orthogonal methods as working comparators and
	// the Sec. 6 future-work hyperparameter autonomy.
	"ext-compress":  ExtCompress,
	"ext-selection": ExtSelection,
	"ext-hp":        ExtHyperparam,
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run regenerates one experiment by id.
func Run(id string, s Scale, seed uint64) (*Result, error) {
	gen, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return gen(s, seed), nil
}
