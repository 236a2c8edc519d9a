package expcfg

// Virtual-fleet assembly: the million-client analogue of Build. Where Build
// materializes every client up front (data shards, speed models, links —
// O(fleet) memory), BuildFleet constructs only the shared ingredients (the
// base datasets, a lazy partition, the master RNG) and derives each client
// from (seed, clientID) when the runner materializes it into a pooled cohort
// slot. Peak memory is O(cohort): a 1M-client run at 1% participation holds
// ~10k live clients, never a million.

import (
	"fmt"

	"fedca/internal/data"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/simnet"
	"fedca/internal/trace"
)

// fleetSlot is one pooled cohort slot: the client struct plus everything a
// client needs that recycles with it. Links are built once per slot and
// reused across occupants — the client round resets link state at round
// start, and the runner wires telemetry observers at every materialization.
// The loader, its generator and the speed model are re-seeded in place for
// each occupant from the same (master seed, id, seq) labels a fresh build
// would use, so every draw is the same and a warm slot allocates nothing.
type fleetSlot struct {
	client    fl.Client
	view      []int
	loader    data.Loader
	loaderRNG rng.RNG
	speed     trace.SpeedModel
}

// VirtualFleet implements fl.Fleet and fl.Selector, and reports its slot
// pool (SlotStats), over a seeded spec: client id i's data shard and speed
// model are pure functions of (master seed, i), derived at materialization.
// Not safe for concurrent use — the runner's cohort and record stages call
// Materialize/Recycle serially.
type VirtualFleet struct {
	part   *data.LazyPartition
	train  *data.Dataset
	tcfg   trace.Config
	master *rng.RNG
	speeds *rng.RNG // master.Fork("speeds"), the parent of every speed model
	batch  int

	free []*fleetSlot
	live map[*fl.Client]*fleetSlot
	seen map[int]bool // SampleOrdinals scratch

	// seq counts materializations; forked into the loader label so a client
	// re-selected in a later round draws a fresh (but still
	// seed-deterministic) shuffle stream instead of replaying its first
	// round's.
	seq          uint64
	slotsBuilt   int64
	recycleCalls int64
}

// Size implements fl.Fleet.
func (f *VirtualFleet) Size() int { return f.part.Clients() }

// Materialize implements fl.Fleet: derive client id into a pooled slot.
func (f *VirtualFleet) Materialize(id int) (*fl.Client, error) {
	var s *fleetSlot
	if n := len(f.free); n > 0 {
		s = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		s = &fleetSlot{}
		s.client.Up = simnet.NewLink(simnet.DefaultClientBandwidth, 0)
		s.client.Down = simnet.NewLink(simnet.DefaultClientBandwidth, 0)
		f.slotsBuilt++
	}
	view, err := f.part.ClientIndices(id, s.view)
	if err != nil {
		f.free = append(f.free, s)
		return nil, fmt.Errorf("expcfg: materialize client %d: %w", id, err)
	}
	s.view = view
	f.seq++
	c := &s.client
	c.ID = id
	f.master.ForkInto(&s.loaderRNG, "loader", id, f.seq)
	s.loader.ResetView(f.train, view, f.batch, &s.loaderRNG)
	c.Loader = &s.loader
	s.speed.ResetClient(id, f.tcfg, f.speeds)
	c.Speed = &s.speed
	c.Weight = float64(len(view))
	f.live[c] = s
	return c, nil
}

// Recycle implements fl.Fleet: return the client's slot to the pool.
func (f *VirtualFleet) Recycle(c *fl.Client) {
	s, ok := f.live[c]
	if !ok {
		return
	}
	delete(f.live, c)
	f.free = append(f.free, s)
	f.recycleCalls++
}

// Select implements fl.Selector: k distinct client ids of the n, ascending,
// drawn from a round-labelled fork of the master RNG — deterministic in
// (seed, round) and independent of every other round's draw.
func (f *VirtualFleet) Select(round int, _ *fl.History, n, k int, dst []int) []int {
	return fl.SampleOrdinals(f.master.Fork("cohort", round), n, k, dst, f.seen)
}

// SlotStats returns the slots built and the clients recycled so far.
func (f *VirtualFleet) SlotStats() (materialized, recycled int64) {
	return f.slotsBuilt, f.recycleCalls
}

// FleetTestbed is the virtual-fleet analogue of Testbed.
type FleetTestbed struct {
	Workload Workload
	Fleet    *VirtualFleet
	Test     *data.Dataset
	Nets     fl.Networks // as Testbed.Nets
}

// BuildFleet assembles a virtual fleet of fleetSize clients over the
// workload's synthetic datasets. perClient is each client's shard size
// (0 defaults to the workload batch size, the same floor Build enforces).
// Everything derives from seed; impossible specs are errors, not panics.
func BuildFleet(w Workload, fleetSize, perClient int, tcfg trace.Config, seed uint64) (*FleetTestbed, error) {
	master := rng.New(seed)
	train, base := w.synthesize(master)
	minPer := w.minShard()
	if perClient <= 0 {
		perClient = minPer
	}
	part, err := data.NewLazyPartition(train.Y, data.PartitionSpec{
		Clients:      fleetSize,
		Alpha:        w.Alpha,
		PerClient:    perClient,
		MinPerClient: minPer,
	}, master.Fork("partition"))
	if err != nil {
		return nil, err
	}
	fleet := &VirtualFleet{
		part:   part,
		train:  train,
		tcfg:   tcfg,
		master: master,
		speeds: master.Fork("speeds"),
		batch:  w.FL.BatchSize,
		live:   make(map[*fl.Client]*fleetSlot),
		seen:   make(map[int]bool),
	}
	return &FleetTestbed{Workload: w, Fleet: fleet, Test: base.Test, Nets: base.Nets}, nil
}

// NewRunner builds an fl.Runner over the virtual fleet with the given scheme.
func (tb *FleetTestbed) NewRunner(scheme fl.Scheme) (*fl.Runner, error) {
	return fl.NewFleetRunner(tb.Workload.FL, tb.Fleet, scheme, tb.Test, tb.Nets)
}
