package baseline

import (
	"slices"

	"fedca/internal/fl"
)

// SAFA is a semi-asynchronous baseline in the spirit of Wu et al. (cited by
// the paper as the family that "exploits the lately-returned updates from the
// stragglers"): updates that missed the aggregation cutoff are NOT thrown
// away — they are cached and folded into the next round's aggregation with a
// staleness discount λ.
type SAFA struct {
	// Discount λ ∈ [0, 1] scales one-round-stale updates (0 = plain FedAvg).
	Discount float64

	cache []fl.Update // stale updates, weights discounted, waiting for the next aggregation
}

// NewSAFA builds a SAFA scheme with the given staleness discount.
func NewSAFA(discount float64) *SAFA {
	if discount < 0 || discount > 1 {
		panic("baseline: SAFA discount must be in [0, 1]")
	}
	return &SAFA{Discount: discount}
}

// Name returns "safa".
func (*SAFA) Name() string { return "safa" }

// PlanRound sets no deadline and no budgets.
func (*SAFA) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline()}
}

// NewController returns the no-op controller.
func (*SAFA) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}

// Carry returns last round's late updates, each weighted λ·w, for the
// runner to fold after this round's collected ones, and keeps copies of
// this round's late updates for the next.
func (s *SAFA) Carry(_ int, late []fl.Update) []fl.Update {
	carried := s.cache
	s.cache = nil
	if s.Discount > 0 {
		for _, u := range late {
			s.cache = append(s.cache, fl.Update{ClientID: u.ClientID, Weight: s.Discount * u.Weight, Delta: slices.Clone(u.Delta)})
		}
	}
	return carried
}
