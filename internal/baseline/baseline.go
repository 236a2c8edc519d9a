// Package baseline implements the comparison schemes of the paper's
// evaluation: FedAvg, FedProx and FedAda. All three are server-autocratic —
// they never react to intra-round client state, which is exactly the
// limitation FedCA (internal/core) lifts.
package baseline

import (
	"math"

	"fedca/internal/fl"
)

// FedAvg is vanilla federated averaging: every client runs the full K local
// iterations and uploads once at round end (McMahan et al.).
type FedAvg struct{}

// Name returns "fedavg".
func (FedAvg) Name() string { return "fedavg" }

// PlanRound sets no deadline and no per-client budgets.
func (FedAvg) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline()}
}

// NewController returns the no-op controller.
func (FedAvg) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}

// FedProx is FedAvg plus a proximal term μ/2·‖w − w_global‖² in the local
// objective (Li et al.), realized as a gradient addition μ(w − w_global).
// The paper uses the recommended μ = 0.01.
type FedProx struct {
	Mu float64
}

// Name returns "fedprox".
func (FedProx) Name() string { return "fedprox" }

// PlanRound sets no deadline and no per-client budgets, and μ as the
// round's proximal term, which every client applies to its gradients.
func (p FedProx) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline(), Prox: p.Mu}
}

// NewController returns the no-op controller: the proximal term rides in
// the plan.
func (FedProx) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}

// FedAda adapts each straggler's intra-round workload on the server (Zhang et
// al.), assuming every iteration contributes uniformly (1/K) to the round's
// statistical progress — the assumption the paper's Sec. 3 measurements
// refute. The server estimates each client's per-iteration time from history,
// picks the FedBalancer-style deadline T_R, and caps client i's budget at
// T_R/t̂_i iterations.
//
// With uniform marginal benefit γ/K and per-iteration cost beyond the
// deadline (1−γ)·t̂_i/T_R, iterations past the deadline never pay off at the
// paper's trade-off factor γ = 0.5 (a straggler past the deadline has
// t̂_i·K > T_R), so the optimal budget is exactly the deadline clamp; fast
// clients keep the full K. Being history-based, the plan cannot react to
// intra-round slowdowns — FedCA's Fig. 8a contrast.
type FedAda struct {
	K        int // default local iterations
	MinIters int // floor so a client still contributes (default K/10)
}

// Name returns "fedada".
func (FedAda) Name() string { return "fedada" }

// PlanRound computes the deadline and per-client budgets from history.
func (f FedAda) PlanRound(round int, hist *fl.History) fl.RoundPlan {
	est := hist.EstRoundTimes(f.K)
	deadline := fl.FedBalancerDeadline(est)
	plan := fl.RoundPlan{Deadline: deadline}
	if math.IsInf(deadline, 1) {
		return plan // no history yet (first round): run the default K
	}
	minIters := f.MinIters
	if minIters <= 0 {
		minIters = f.K / 10
		if minIters < 1 {
			minIters = 1
		}
	}
	plan.IterBudget = make(map[int]int)
	for id, roundTime := range est {
		iterTime := roundTime / float64(f.K)
		budget := int(deadline / iterTime)
		if budget < minIters {
			budget = minIters
		}
		if budget > f.K {
			budget = f.K
		}
		plan.IterBudget[id] = budget
	}
	return plan
}

// NewController returns the no-op controller: all FedAda decisions are made
// server-side before the round starts.
func (FedAda) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}
