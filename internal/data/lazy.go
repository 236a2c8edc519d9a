package data

// Lazy per-client partitioning for virtual fleets. DirichletPartition
// materializes a dense [][]int over the whole fleet — O(fleet) memory and
// construction time, which caps fleets at ~10³. LazyPartition instead treats
// a client's shard as a pure function of (partition RNG, client id): the
// index list is derived on demand when the client is materialized into a
// cohort slot and thrown away when the slot is recycled, so a million-client
// fleet costs O(classes) resident state plus O(samplesPerClient) per live
// cohort member.
//
// The skew construction is the per-client dual of the Hsu et al. scheme the
// dense partitioner uses: instead of one Dirichlet(α) draw over clients per
// class, each client draws a Dirichlet(α) mixture over classes and samples
// its shard from the class pools with replacement. Low α concentrates a
// client's mixture on few classes, reproducing the label skew that drives
// FedCA's heterogeneity phenomena. Because shards are independent draws,
// clients may share base samples — irrelevant for the simulation, which only
// ever sees a client's local view.
//
// Unlike DirichletPartition, which panics on impossible requests (a legacy
// contract pinned by edge_test.go), the lazy view returns errors: a virtual
// fleet is configured from user-facing knobs (-fleet, -participation) and a
// bad spec must surface as a rejected config, not a crash.

import (
	"fmt"
	"math"

	"fedca/internal/rng"
)

// PartitionSpec configures a LazyPartition.
type PartitionSpec struct {
	// Clients is the virtual fleet size.
	Clients int
	// Alpha is the Dirichlet concentration of each client's class mixture
	// (the paper uses 0.1: heavy label skew).
	Alpha float64
	// PerClient is the number of samples in every client's shard.
	PerClient int
	// MinPerClient is the smallest acceptable shard (validated against
	// PerClient at construction; a loader's batch size is the usual floor).
	MinPerClient int
}

// LazyPartition is a seeded, order-independent view of a Dirichlet-skewed
// partition over a labelled dataset. ClientIndices(id) returns the same
// shard no matter when or in what order clients are materialized: every
// draw comes from forks of the construction RNG labelled by client id, and
// forking never advances the parent.
//
// Not safe for concurrent use: materialization happens on the serial server
// phase of the round loop (see the fl package's concurrency contract).
type LazyPartition struct {
	spec    PartitionSpec
	byClass [][]int
	base    *rng.RNG

	// scratch for the per-client class mixture (classes entries).
	weights []float64
	cdf     []float64
}

// NewLazyPartition validates the spec and indexes the label pools. All
// impossible configurations — zero clients, an empty dataset, a shard
// smaller than the required minimum, a degenerate α — are errors.
func NewLazyPartition(labels []int, spec PartitionSpec, r *rng.RNG) (*LazyPartition, error) {
	if spec.Clients <= 0 {
		return nil, fmt.Errorf("data: lazy partition needs a positive client count, got %d", spec.Clients)
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("data: lazy partition over an empty dataset")
	}
	if spec.PerClient <= 0 {
		return nil, fmt.Errorf("data: lazy partition needs a positive per-client shard size, got %d", spec.PerClient)
	}
	if spec.MinPerClient > spec.PerClient {
		return nil, fmt.Errorf("data: cannot give every client %d samples when shards hold %d", spec.MinPerClient, spec.PerClient)
	}
	if spec.Alpha <= 0 || math.IsNaN(spec.Alpha) || math.IsInf(spec.Alpha, 0) {
		return nil, fmt.Errorf("data: Dirichlet alpha must be positive and finite, got %v", spec.Alpha)
	}
	classes := 0
	for i, y := range labels {
		if y < 0 {
			return nil, fmt.Errorf("data: negative class label %d at sample %d", y, i)
		}
		if y >= classes {
			classes = y + 1
		}
	}
	byClass := make([][]int, classes)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	return &LazyPartition{
		spec:    spec,
		byClass: byClass,
		base:    r,
		weights: make([]float64, classes),
		cdf:     make([]float64, classes),
	}, nil
}

// Clients returns the virtual fleet size.
func (p *LazyPartition) Clients() int { return p.spec.Clients }

// ClientIndices derives client id's shard: PerClient base-dataset indices
// drawn from the client's own Dirichlet class mixture. dst is reused when
// its capacity suffices (cohort slots recycle their index buffers).
func (p *LazyPartition) ClientIndices(id int, dst []int) ([]int, error) {
	if id < 0 || id >= p.spec.Clients {
		return nil, fmt.Errorf("data: client id %d outside fleet [0,%d)", id, p.spec.Clients)
	}
	// The class mixture and the sample draws come from separate forks so the
	// number of mixture draws (classes) never shifts the sample stream.
	var mix, draw rng.RNG
	p.base.ForkInto(&mix, "mix", id)
	mix.Dirichlet(p.spec.Alpha, p.weights)
	// Mass on empty class pools is redistributed by renormalizing the CDF
	// over non-empty classes only (a generator may emit fewer classes than
	// max label + 1 when N < classes).
	total := 0.0
	for c, w := range p.weights {
		if len(p.byClass[c]) == 0 {
			w = 0
		}
		total += w
		p.cdf[c] = total
	}
	p.base.ForkInto(&draw, "draw", id)
	if cap(dst) < p.spec.PerClient {
		dst = make([]int, 0, p.spec.PerClient)
	}
	dst = dst[:0]
	for k := 0; k < p.spec.PerClient; k++ {
		u := draw.Float64() * total
		c := 0
		for c < len(p.cdf)-1 && p.cdf[c] <= u {
			c++
		}
		// Skip any trailing empty classes the CDF search may land on when u
		// falls exactly on a flat segment boundary.
		for len(p.byClass[c]) == 0 {
			c = (c + 1) % len(p.byClass)
		}
		pool := p.byClass[c]
		dst = append(dst, pool[draw.Intn(len(pool))])
	}
	return dst, nil
}
