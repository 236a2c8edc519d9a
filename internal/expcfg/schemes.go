package expcfg

import (
	"fmt"

	"fedca/internal/baseline"
	"fedca/internal/core"
	"fedca/internal/fl"
	"fedca/internal/rng"
)

// SchemeByName builds the named scheme for a run configured by cfg: "fedavg",
// "fedprox", "fedada", "fedca", "fedca-v1", "fedca-v2", "oort" or "safa". It
// is the one place a scheme name is resolved: NewRun builds the scheme, and
// the spec text checks a scheme key against it.
//
// fedca holds the FedCA hyperparameters of the three FedCA variants (zero
// options mean core.DefaultOptions), with K set to cfg.LocalIters; the
// variants draw from rng.New(seed).Fork("scheme"). Oort draws from
// Fork("oort") and, when cfg.Participation is unset, sets it to 0.5.
func SchemeByName(name string, cfg *fl.Config, fedca core.Options, seed uint64) (fl.Scheme, error) {
	switch name {
	case "fedavg":
		return baseline.FedAvg{}, nil
	case "fedprox":
		return baseline.FedProx{Mu: 0.01}, nil
	case "fedada":
		return baseline.FedAda{K: cfg.LocalIters}, nil
	case "oort":
		if cfg.Participation == 0 {
			cfg.Participation = 0.5
		}
		return baseline.NewOort(cfg.LocalIters, rng.New(seed).Fork("oort")), nil
	case "safa":
		return baseline.NewSAFA(0.5), nil
	case "fedca", "fedca-v1", "fedca-v2":
		if fedca.K == 0 {
			fedca = core.DefaultOptions(cfg.LocalIters)
		}
		fedca.K = cfg.LocalIters
		if name != "fedca" { // v1: early stop only; v2: plus eager sends
			fedca.Eager, fedca.Retransmit = name == "fedca-v2", false
		}
		return core.NewScheme(fedca, rng.New(seed).Fork("scheme")), nil
	}
	return nil, fmt.Errorf("expcfg: unknown scheme %q", name)
}
