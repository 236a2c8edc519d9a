package fl

// The fleet abstraction virtualizes the client population: the runner never
// holds more client state than the round's cohort. A Fleet of n clients
// numbers them 0 to n−1 and materializes a *Client for an id on demand — a
// static fleet just indexes a pre-built slice, a virtual fleet
// (expcfg.BuildFleet) derives every client's data shard, speed model and
// links from (fleetSeed, clientID) when the client is selected, into a
// pooled slot that Recycle returns after the round. Million-client fleets
// therefore cost O(cohort) live memory, not O(fleet).

import (
	"fmt"
	"sort"

	"fedca/internal/rng"
)

// Fleet is the client population a Runner draws each round's cohort from:
// the clients with ids 0 to Size()−1.
//
// Materialize and Recycle are called serially, by the round's cohort and
// record stages (see the package comment), so implementations need no
// locking against the runner. Materialize may return a pooled slot
// whose previous occupant was recycled; Recycle hands a client back once
// its round is fully processed (no Update or scheme state references it —
// controllers only retain the client id).
type Fleet interface {
	// Size is the fleet's population count.
	Size() int
	// Materialize returns the live client for id, building or reusing a
	// cohort slot as needed. The id must lie in [0, Size).
	Materialize(id int) (*Client, error)
	// Recycle returns a materialized client's slot to the fleet's pool.
	// No-op for static fleets.
	Recycle(c *Client)
}

// StaticFleet adapts a pre-materialized client slice — the classic testbed
// shape — to the Fleet interface. Materialize is a lookup and Recycle a
// no-op: every client stays live for the run, exactly as before.
type StaticFleet struct {
	clients []*Client
}

// NewStaticFleet wraps clients, whose ids must be their indices.
func NewStaticFleet(clients []*Client) *StaticFleet {
	for i, c := range clients {
		if c.ID != i {
			panic(fmt.Sprintf("fl: static fleet member %d has id %d", i, c.ID))
		}
	}
	return &StaticFleet{clients: clients}
}

// Size implements Fleet.
func (f *StaticFleet) Size() int { return len(f.clients) }

// Materialize implements Fleet: an index.
func (f *StaticFleet) Materialize(id int) (*Client, error) {
	if id < 0 || id >= len(f.clients) {
		return nil, fmt.Errorf("fl: unknown client %d", id)
	}
	return f.clients[id], nil
}

// Recycle implements Fleet as a no-op: static clients are never pooled.
func (f *StaticFleet) Recycle(*Client) {}

// SampleOrdinals draws k distinct ordinals from [0, n) in O(k) memory and
// time using Floyd's algorithm, appends them to dst and returns it sorted
// ascending — so cohort materialization order, and with it the streaming
// reduce's fold order, is deterministic. seen is the sampler's scratch set,
// cleared on entry; pass the same map across rounds to avoid reallocating.
// rng.Sample is O(n) (it permutes the whole range), which a million-client
// fleet cannot afford per round.
func SampleOrdinals(r *rng.RNG, n, k int, dst []int, seen map[int]bool) []int {
	if k > n {
		k = n
	}
	for id := range seen {
		delete(seen, id)
	}
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if seen[t] {
			t = j
		}
		seen[t] = true
		dst = append(dst, t)
	}
	sort.Ints(dst[len(dst)-k:])
	return dst
}
