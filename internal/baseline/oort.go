package baseline

import (
	"math"
	"sort"

	"fedca/internal/fl"
	"fedca/internal/rng"
)

// Oort is a guided-participant-selection baseline in the spirit of Lai et
// al., OSDI'21 (cited by the paper as the proactive straggler-evasion
// family). Each round it selects the cohort Config.Participation asks for
// by a combined statistical × system utility with ε-greedy exploration:
//
//	util_i = loss_i · min(1, (T_pref/t̂_i))^α
//
// where loss_i is the client's last reported mean training loss, which
// fl.History remembers (higher loss = statistically more useful), t̂_i its
// estimated full-round time, T_pref the current FedBalancer deadline, and α
// the system-penalty exponent.
// Clients without history are explored first.
type Oort struct {
	K       int     // default local iterations (for round-time estimates)
	Epsilon float64 // exploration share (default 0.1)
	Alpha   float64 // system penalty exponent (default 2, as in Oort)

	r *rng.RNG
}

// NewOort builds an Oort selector.
func NewOort(k int, r *rng.RNG) *Oort {
	return &Oort{K: k, Epsilon: 0.1, Alpha: 2, r: r}
}

// Name returns "oort".
func (*Oort) Name() string { return "oort" }

// PlanRound sets no deadline and no budgets (selection is Oort's lever).
func (*Oort) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline()}
}

// NewController returns the no-op controller.
func (*Oort) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}

// Select implements fl.Selector: k of the n clients, ascending — the ε
// share uniformly from the unexplored/rest pool, the remainder by utility
// score.
func (o *Oort) Select(round int, hist *fl.History, n, k int, dst []int) []int {
	if k >= n {
		for id := 0; id < n; id++ {
			dst = append(dst, id)
		}
		return dst
	}
	est := hist.EstRoundTimes(o.K)
	pref := fl.FedBalancerDeadline(est)

	type scored struct {
		id   int
		util float64
	}
	var known []scored
	var unknown []int
	for id := 0; id < n; id++ {
		loss, haveLoss := hist.LastLoss(id)
		t, haveTime := est[id]
		if !haveLoss || !haveTime {
			unknown = append(unknown, id)
			continue
		}
		sys := 1.0
		if !math.IsInf(pref, 1) && t > pref {
			sys = math.Pow(pref/t, o.Alpha)
		}
		known = append(known, scored{id: id, util: loss * sys})
	}
	sort.Slice(known, func(a, b int) bool {
		if known[a].util != known[b].util {
			return known[a].util > known[b].util
		}
		return known[a].id < known[b].id
	})

	explore := int(math.Round(o.Epsilon * float64(k)))
	if explore > len(unknown) {
		explore = len(unknown)
	}
	// Unexplored clients take priority up to the full budget when utility
	// data is still missing (cold start).
	if len(known) < k-explore {
		explore = k - len(known)
		if explore > len(unknown) {
			explore = len(unknown)
		}
	}
	selected := make([]int, 0, k)
	if explore > 0 {
		for _, j := range o.r.Fork("explore", round).Sample(len(unknown), explore) {
			selected = append(selected, unknown[j])
		}
	}
	for _, s := range known {
		if len(selected) >= k {
			break
		}
		selected = append(selected, s.id)
	}
	// Backfill from the unknown pool if still short.
	for _, id := range unknown {
		if len(selected) >= k {
			break
		}
		dup := false
		for _, s := range selected {
			if s == id {
				dup = true
				break
			}
		}
		if !dup {
			selected = append(selected, id)
		}
	}
	sort.Ints(selected)
	return append(dst, selected...)
}
