package fl

import (
	"math"
	"sort"
	"sync"
)

// History is the server's knowledge about client behaviour, learned from the
// updates it actually received (the server never sees intra-round state —
// that is the whole point of the paper). Per-iteration wall times feed the
// FedBalancer-style deadline and FedAda's workload planning; the last
// reported training losses feed Oort's selection.
//
// History is safe for concurrent use. The round loop writes it serially, but
// monitors polling estimates mid-round may mix Observe with the read
// accessors freely.
type History struct {
	mu sync.RWMutex
	// ewma of per-iteration local compute seconds, keyed by client id.
	iterTime map[int]float64
	// alpha is the EWMA smoothing weight of the newest observation.
	alpha float64
	// loss is each client's most recent reported mean training loss.
	loss map[int]float64
}

// NewHistory creates an empty history with EWMA weight 0.5.
func NewHistory() *History {
	return &History{iterTime: make(map[int]float64), alpha: 0.5, loss: make(map[int]float64)}
}

// Observe folds a received update into the history: its reported loss, and
// its per-iteration time when it trained.
func (h *History) Observe(u Update) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.loss[u.ClientID] = u.TrainLoss
	if u.Iterations <= 0 || u.TrainTime <= 0 {
		return
	}
	t := u.TrainTime / float64(u.Iterations)
	if old, ok := h.iterTime[u.ClientID]; ok {
		h.iterTime[u.ClientID] = h.alpha*t + (1-h.alpha)*old
	} else {
		h.iterTime[u.ClientID] = t
	}
}

// EstRoundTimes returns the estimated K-iteration local training time for
// each client with history (unordered map copy).
func (h *History) EstRoundTimes(k int) map[int]float64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[int]float64, len(h.iterTime))
	for id, t := range h.iterTime {
		out[id] = t * float64(k)
	}
	return out
}

// LastLoss returns client id's most recently reported mean training loss,
// and whether it has reported one.
func (h *History) LastLoss(id int) (float64, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	loss, ok := h.loss[id]
	return loss, ok
}

// FedBalancerDeadline selects the round deadline T maximizing the ratio of
// clients expected to finish within T to T itself (the deadline-setup
// strategy of FedBalancer that both FedAda and FedCA reuse, paper Eq. 3
// discussion). est holds each client's estimated full-round training time.
// With no estimates it returns +Inf (no deadline).
func FedBalancerDeadline(est map[int]float64) float64 {
	if len(est) == 0 {
		return math.Inf(1)
	}
	times := make([]float64, 0, len(est))
	for _, t := range est {
		if t > 0 {
			times = append(times, t)
		}
	}
	if len(times) == 0 {
		return math.Inf(1)
	}
	sort.Float64s(times)
	best, bestScore := times[len(times)-1], -1.0
	for i, t := range times {
		score := float64(i+1) / t
		// Strictly-greater keeps the earliest deadline among ties, which is
		// the more aggressive (and deterministic) choice.
		if score > bestScore {
			best, bestScore = t, score
		}
	}
	return best
}
