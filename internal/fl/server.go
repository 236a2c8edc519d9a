package fl

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fedca/internal/cputok"
	"fedca/internal/data"
	"fedca/internal/nn"
	"fedca/internal/telemetry"
	"fedca/internal/tensor"
)

// RoundResult summarizes one completed round.
type RoundResult struct {
	Round      int
	Start, End float64 // virtual time
	Collected  []Update
	Discarded  []Update
	Accuracy   float64 // global model accuracy after aggregation
	Plan       RoundPlan

	// Skipped marks a round that closed without aggregating: fewer valid
	// updates survived (dropout, quarantine) than the quorum requires. The
	// global model is unchanged; Collected holds the below-quorum survivors.
	Skipped bool
	// Quarantined counts updates that arrived but failed validation; they
	// sit in Discarded with Update.Quarantined set.
	Quarantined int

	MeanIterations float64
	MeanEagerSent  float64
	MeanRetrans    float64
}

// RunnerStats aggregates the run's degradation events. Snapshot via
// Runner.Stats, safe to poll from any goroutine while rounds execute.
type RunnerStats struct {
	Rounds        int `json:"rounds"`         // rounds completed (including skipped)
	SkippedRounds int `json:"skipped_rounds"` // rounds closed without aggregation (below quorum)
	Quarantined   int `json:"quarantined"`    // updates rejected by validation
	DroppedRounds int `json:"dropped_rounds"` // client-rounds lost to mid-round dropout
	LinkRetries   int `json:"link_retries"`   // failed transfer attempts that were retransmitted
	CohortClients int `json:"cohort_clients"` // client-rounds materialized into cohorts over the run
}

// Duration returns the round's virtual wall time.
func (r RoundResult) Duration() float64 { return r.End - r.Start }

// Runner drives a full FL training run for one scheme.
type Runner struct {
	Cfg    Config
	Fleet  Fleet
	Scheme Scheme
	Test   *data.Dataset
	Hist   *History

	global  *nn.Network
	flat    []float64
	workers []trainWorker   // dtype-erased training slots (see Config.DType)
	bufs    []*RoundBuffers // per-worker scratch, index-aligned with workers
	pool    *deltaPool      // recycles Update.Delta vectors across rounds
	aggBuf  []float64       // reusable accumulator of the weighted reduce
	round   int
	now     float64

	// Reused per-round cohort buffers: ids, the materialized cohort slice
	// (what used to be a fresh `chosen` allocation every selector round),
	// controllers, raw updates and the fold bookkeeping all recycle with the
	// round buffers, so steady-state rounds allocate no cohort-sized slices.
	cohortIDs []int
	cohort    []*Client
	ctrls     []Controller
	updates   []Update
	order     []int
	seen      map[int]bool
	foldDone  []bool

	// statsMu guards stats: the round loop updates it serially, but monitors
	// may poll Stats from other goroutines while a round runs.
	statsMu sync.Mutex
	stats   RunnerStats
}

// RunnerOption customizes runner construction (NewRunner, NewFleetRunner).
type RunnerOption func(*runnerOpts)

type runnerOpts struct {
	factory32 func() *nn.NetworkOf[float32]
}

// WithFloat32Workers supplies the float32 network factory the runner uses for
// its training slots when Config.DType is "f32". The factory must build the
// float32 instantiation of the same architecture as the float64 factory —
// same parameters in the same order — since the two exchange state through
// the flat float64 parameter vector. Ignored at other dtypes.
func WithFloat32Workers(factory func() *nn.NetworkOf[float32]) RunnerOption {
	return func(o *runnerOpts) { o.factory32 = factory }
}

// NewRunner wires a runner over a pre-materialized client slice (wrapped in
// a StaticFleet). factory must build fresh identically-shaped networks; the
// first one becomes the global model (its initialization is the run's
// starting point) and one extra per worker executes client training.
func NewRunner(cfg Config, clients []*Client, scheme Scheme, test *data.Dataset, factory func() *nn.Network, opts ...RunnerOption) (*Runner, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	r, err := NewFleetRunner(cfg, NewStaticFleet(clients), scheme, test, factory, opts...)
	if err != nil {
		return nil, err
	}
	if t := r.Cfg.Telemetry; t != nil {
		// Observe every client link and name the trace tracks. Observers are
		// passive (simnet.TransferObserver), so the links' arithmetic — and
		// therefore the run — is unchanged. Virtual fleets attach observers
		// at materialization instead and skip track naming (a million named
		// tracks is not a trace anyone reads).
		for _, c := range clients {
			c.Up.Observer = t.UpObserver()
			c.Down.Observer = t.DownObserver()
			t.Tracer().NameTrack(telemetry.ClientTrack(c.ID), fmt.Sprintf("client %d", c.ID))
		}
	}
	return r, nil
}

// NewFleetRunner wires a runner over a Fleet — the entry point for virtual
// fleets where only each round's cohort is materialized. Worker networks are
// sized by min(CPU-token cap, expected cohort), so a million-client fleet at
// 1% participation builds the same handful of worker models a static testbed
// would. Config.Participation in (0,1) requires the fleet to implement
// CohortSampler.
//
// The global model is always float64 — master weights, aggregation and
// evaluation never narrow. Config.DType "f32" switches only the training
// slots to float32 and requires WithFloat32Workers.
func NewFleetRunner(cfg Config, fleet Fleet, scheme Scheme, test *data.Dataset, factory func() *nn.Network, opts ...RunnerOption) (*Runner, error) {
	if fleet == nil || fleet.Size() == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	var ro runnerOpts
	for _, o := range opts {
		o(&ro)
	}
	global := factory()
	if err := cfg.Validate(global.NumParams()); err != nil {
		return nil, err
	}
	// The global model only ever runs inference (Evaluate, after every
	// round), and does it out of a scratch arena of its own.
	global.SetArena(tensor.NewArena())
	if cfg.DType == "f32" && ro.factory32 == nil {
		return nil, fmt.Errorf("fl: DType \"f32\" requires WithFloat32Workers")
	}
	if p := cfg.Participation; p > 0 && p < 1 {
		if _, ok := fleet.(CohortSampler); !ok {
			return nil, fmt.Errorf("fl: Participation %v requires a cohort-sampling fleet", p)
		}
	}
	// One network per potential worker, sized by the CPU-token budget at
	// construction. At round time the runner borrows tokens for however many
	// of these it may actually run concurrently.
	nWorkers := cputok.Default().Cap()
	if c := expectedCohort(cfg, fleet.Size()); nWorkers > c {
		nWorkers = c
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	workers := make([]trainWorker, nWorkers)
	bufs := make([]*RoundBuffers, nWorkers)
	pool := &deltaPool{}
	for i := range workers {
		if cfg.DType == "f32" {
			workers[i] = newTrainWorkerOf(ro.factory32())
		} else {
			workers[i] = newTrainWorkerOf(factory())
		}
		if np := workers[i].numParams(); np != global.NumParams() {
			return nil, fmt.Errorf("fl: worker factory built %d params, global model has %d", np, global.NumParams())
		}
		bufs[i] = &RoundBuffers{pool: pool}
	}
	return &Runner{
		Cfg:     cfg,
		Fleet:   fleet,
		Scheme:  scheme,
		Test:    test,
		Hist:    NewHistory(),
		global:  global,
		flat:    global.FlatParams(),
		workers: workers,
		bufs:    bufs,
		pool:    pool,
		seen:    make(map[int]bool),
	}, nil
}

// expectedCohort returns the per-round cohort size a config implies: the
// participation sample when one is configured, the whole fleet otherwise.
func expectedCohort(cfg Config, fleetSize int) int {
	if p := cfg.Participation; p > 0 && p < 1 {
		k := int(math.Round(p * float64(fleetSize)))
		if k < 1 {
			k = 1
		}
		return k
	}
	return fleetSize
}

// Global returns the server's model (parameters current as of the last
// aggregation).
func (r *Runner) Global() *nn.Network { return r.global }

// GlobalFlat returns a copy of the current global parameter vector.
func (r *Runner) GlobalFlat() []float64 {
	out := make([]float64, len(r.flat))
	copy(out, r.flat)
	return out
}

// Now returns the current virtual time.
func (r *Runner) Now() float64 { return r.now }

// Round returns the number of completed rounds.
func (r *Runner) Round() int { return r.round }

// Stats snapshots the run's degradation counters. Safe to call from any
// goroutine, including while RunRound executes.
func (r *Runner) Stats() RunnerStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.stats
}

// selectCohort decides which client ids participate this round, reusing the
// runner's id buffer: a Selector scheme's choice (deduplicated, order
// preserved) when one is active, else a deterministic participation sample
// from the fleet's seeded sampler, else the whole fleet.
func (r *Runner) selectCohort() (ids []int, fromSelector bool) {
	ids = r.cohortIDs[:0]
	if sel, ok := r.Scheme.(Selector); ok {
		if chosen := sel.SelectClients(r.round, r.Hist, r.Fleet.Size()); len(chosen) > 0 {
			for id := range r.seen {
				delete(r.seen, id)
			}
			for _, id := range chosen {
				if r.seen[id] {
					continue
				}
				r.seen[id] = true
				ids = append(ids, id)
			}
			r.cohortIDs = ids
			return ids, true
		}
	}
	if sampler, ok := r.Fleet.(CohortSampler); ok {
		if p := r.Cfg.Participation; p > 0 && p < 1 {
			k := expectedCohort(r.Cfg, r.Fleet.Size())
			ids = sampler.SampleCohort(r.round, k, ids)
			r.cohortIDs = ids
			return ids, false
		}
	}
	for i := 0; i < r.Fleet.Size(); i++ {
		ids = append(ids, r.Fleet.ClientID(i))
	}
	r.cohortIDs = ids
	return ids, false
}

// RunRound executes one full round and returns its result.
func (r *Runner) RunRound() RoundResult {
	plan := r.Scheme.PlanRound(r.round, r.Hist)
	start := r.now

	// Cohort materialization (serial server phase): ids become live clients,
	// pooled slots for virtual fleets, plain lookups for static ones.
	ids, fromSelector := r.selectCohort()
	participants := r.cohort[:0]
	for _, id := range ids {
		c, err := r.Fleet.Materialize(id)
		if err != nil {
			if fromSelector {
				panic(fmt.Sprintf("fl: selector chose unknown client %d", id))
			}
			panic(fmt.Sprintf("fl: fleet failed to materialize client %d: %v", id, err))
		}
		if t := r.Cfg.Telemetry; t != nil {
			// Static fleets attached observers at construction; virtual
			// slots get theirs on first materialization (observers are
			// passive, so the run is unchanged either way).
			if c.Up.Observer == nil {
				c.Up.Observer = t.UpObserver()
			}
			if c.Down.Observer == nil {
				c.Down.Observer = t.DownObserver()
			}
		}
		participants = append(participants, c)
	}
	r.cohort = participants

	// Controllers are created serially (the Scheme contract): schemes may
	// mutate shared state (e.g. FedCA's per-client profiles) during
	// construction without locking against other NewController calls —
	// though stats they expose to concurrent pollers still need locks.
	if cap(r.ctrls) < len(participants) {
		r.ctrls = make([]Controller, len(participants))
	}
	ctrls := r.ctrls[:len(participants)]
	for i, c := range participants {
		ctrls[i] = r.Scheme.NewController(c, r.round, plan)
	}

	// Anchor detection is telemetry-only: schemes exposing IsAnchorRound
	// (FedCA) get their profiling client-rounds labelled in the trace.
	anchor := false
	if a, ok := r.Scheme.(interface{ IsAnchorRound(int) bool }); ok {
		anchor = a.IsAnchorRound(r.round)
	}

	// Clients run in parallel; each worker owns one network and one scratch
	// buffer set. Extra workers are borrowed from the shared CPU-token budget
	// — the calling goroutine is always the first worker, so a spent budget
	// (every token held by sibling experiment cells) degrades to the serial
	// path instead of oversubscribing. Results land in a slice indexed by
	// participant, so the outcome is order-independent.
	if cap(r.updates) < len(participants) {
		r.updates = make([]Update, len(participants))
	}
	updates := r.updates[:len(participants)]

	// Online streaming fold: when every non-dropped update is aggregated
	// (AggregateFraction == 1) on the default path, completed updates fold
	// into the accumulator while the client phase still runs and their
	// deltas recycle immediately — peak delta memory is the out-of-order
	// completion window, not the cohort. With a partial-aggregation cut the
	// collected set depends on every virtual completion time, so the fold
	// must wait for the cut and streams through weightedReduce instead.
	_, customAgg := r.Scheme.(Aggregator)
	var fold *onlineFold
	if r.Cfg.AggregateFraction >= 1 && !customAgg && !r.Cfg.RetainUpdateDeltas {
		if len(r.aggBuf) != len(r.flat) {
			r.aggBuf = make([]float64, len(r.flat))
		}
		if cap(r.foldDone) < len(participants) {
			r.foldDone = make([]bool, len(participants))
		}
		done := r.foldDone[:len(participants)]
		for i := range done {
			done[i] = false
		}
		fold = &onlineFold{
			agg:      r.aggBuf,
			updates:  updates,
			done:     done,
			validate: r.Cfg.ValidateUpdates || r.Cfg.Chaos != nil,
			maxNorm:  r.Cfg.MaxDeltaNorm,
			pool:     r.pool,
		}
		for j := range fold.agg {
			fold.agg[j] = 0
		}
	}

	maxWorkers := len(r.workers)
	if maxWorkers > len(participants) {
		maxWorkers = len(participants)
	}
	borrowed := cputok.Default().Borrow(maxWorkers - 1)
	var next int
	var mu sync.Mutex
	clientWorker := func(w trainWorker, bufs *RoundBuffers) {
		for {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= len(participants) {
				return
			}
			updates[i] = w.run(participants[i], r.flat, &r.Cfg, plan, ctrls[i], r.round, start, bufs, anchor)
			if fold != nil {
				fold.complete(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(borrowed)
	for w := 1; w <= borrowed; w++ {
		go func(w trainWorker, bufs *RoundBuffers) {
			defer wg.Done()
			clientWorker(w, bufs)
		}(r.workers[w], r.bufs[w])
	}
	clientWorker(r.workers[0], r.bufs[0])
	wg.Wait()
	cputok.Default().Return(borrowed)

	// Partial aggregation: earliest AggregateFraction of updates.
	if cap(r.order) < len(updates) {
		r.order = make([]int, len(updates))
	}
	order := r.order[:len(updates)]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ua, ub := updates[order[a]], updates[order[b]]
		if ua.CompletionTime != ub.CompletionTime {
			return ua.CompletionTime < ub.CompletionTime
		}
		return ua.ClientID < ub.ClientID
	})
	take := int(math.Ceil(r.Cfg.AggregateFraction * float64(len(updates))))
	if take < 1 {
		take = 1
	}
	collected := make([]Update, 0, take)
	discarded := make([]Update, 0, len(updates)-take)
	for i, oi := range order {
		// Dropped clients sort last (CompletionTime = +Inf) and are never
		// aggregated even when the survivor count falls short of the target.
		if i < take && !updates[oi].Dropped {
			collected = append(collected, updates[oi])
		} else {
			discarded = append(discarded, updates[oi])
		}
	}

	// The round closes when the last collected update arrives. With no
	// survivors at all, it closes when the last client vanished (its burned
	// compute time) so virtual time still advances.
	end := start
	if len(collected) > 0 {
		end = collected[len(collected)-1].CompletionTime
	} else {
		for _, u := range updates {
			if t := start + u.TrainTime; t > end {
				end = t
			}
		}
	}

	// Update validation: quarantine deltas no sane server would aggregate —
	// any non-finite coordinate, or (when bounded) an exploded norm. The
	// quarantined update stays visible in Discarded. On the online-fold path
	// validation already ran at fold time (identically: the fold checks the
	// same predicate in the same participant order); here the marked updates
	// only move from collected to discarded.
	quarantined := 0
	if fold != nil {
		valid := collected[:0]
		for _, u := range collected {
			if u.Quarantined {
				discarded = append(discarded, u)
				quarantined++
			} else {
				valid = append(valid, u)
			}
		}
		collected = valid
	} else if r.Cfg.ValidateUpdates || r.Cfg.Chaos != nil {
		valid := collected[:0]
		for _, u := range collected {
			if deltaValid(u.Delta, r.Cfg.MaxDeltaNorm) {
				valid = append(valid, u)
			} else {
				u.Quarantined = true
				discarded = append(discarded, u)
				quarantined++
			}
		}
		collected = valid
	}

	// Graceful degradation: a round with fewer valid survivors than the
	// quorum is skipped-and-recorded — the model stays as it is and the run
	// continues — instead of panicking the whole simulation away.
	quorum := r.Cfg.MinQuorum
	if quorum < 1 {
		quorum = 1
	}
	skipped := len(collected) < quorum

	// deltasRecycled marks collected deltas that already went back to the
	// pool — by the online fold, or by weightedReduce's per-chunk recycling —
	// so the cleanup loop below must not pool them a second time. (Their
	// Update.Delta fields are already nil on the fold path; weightedReduce
	// recycles via callback while the Update still points at the buffer.)
	deltasRecycled := fold != nil
	if !skipped {
		// Aggregation: schemes implementing Aggregator replace the default
		// weighted FedAvg mean (e.g. SAFA-style stale-update reuse).
		if agg, ok := r.Scheme.(Aggregator); ok {
			r.flat = agg.Aggregate(r.round, r.flat, collected, discarded)
			if len(r.flat) != r.global.NumParams() {
				panic("fl: aggregator returned a wrong-sized parameter vector")
			}
		} else if fold != nil {
			applyFold(r.flat, fold.agg, fold.totalW, len(r.workers))
		} else {
			var totalW float64
			for _, u := range collected {
				totalW += u.Weight
			}
			if len(r.aggBuf) != len(r.flat) {
				r.aggBuf = make([]float64, len(r.flat))
			}
			var recycle func([]float64)
			if !r.Cfg.RetainUpdateDeltas {
				recycle = r.pool.put
				deltasRecycled = true
			}
			weightedReduce(r.flat, r.aggBuf, collected, totalW, len(r.workers), recycle)
		}
		r.global.SetFlatParams(r.flat)
	}

	// Timing estimates stay fresh even on skipped rounds: the survivors'
	// updates really arrived. Quarantined updates are distrusted entirely.
	for _, u := range collected {
		r.Hist.Observe(u)
	}
	if !r.Cfg.RetainUpdateDeltas {
		// The deltas are dead now; recycle them into the worker pool — but
		// only on the default-aggregation path: a custom Aggregator may have
		// retained references (SAFA caches stragglers), and clobbering those
		// through the pool would corrupt it silently. Skipped rounds never
		// entered the reduce, so their collected deltas are pooled here.
		for i := range collected {
			if !customAgg && !deltasRecycled {
				r.pool.put(collected[i].Delta)
			}
			collected[i].Delta = nil
		}
		for i := range discarded {
			if !customAgg {
				r.pool.put(discarded[i].Delta)
			}
			discarded[i].Delta = nil
		}
	}

	res := RoundResult{
		Round:       r.round,
		Start:       start,
		End:         end,
		Collected:   collected,
		Discarded:   discarded,
		Plan:        plan,
		Skipped:     skipped,
		Quarantined: quarantined,
	}
	var sumIter, sumEager, sumRetr, upBytes float64
	dropped, linkRetries := 0, 0
	for _, u := range collected {
		sumIter += float64(u.Iterations)
		sumEager += float64(u.EagerSent)
		sumRetr += float64(u.Retransmitted)
		linkRetries += u.LinkRetries
		upBytes += u.UploadBytes
	}
	for _, u := range discarded {
		linkRetries += u.LinkRetries
		upBytes += u.UploadBytes
		if u.Dropped {
			dropped++
		}
	}
	if n := float64(len(collected)); n > 0 {
		res.MeanIterations = sumIter / n
		res.MeanEagerSent = sumEager / n
		res.MeanRetrans = sumRetr / n
	}
	if r.Test != nil {
		res.Accuracy = Evaluate(r.global, r.Test, r.Cfg.EvalBatch)
	}

	r.statsMu.Lock()
	r.stats.Rounds++
	if skipped {
		r.stats.SkippedRounds++
	}
	r.stats.Quarantined += quarantined
	r.stats.DroppedRounds += dropped
	r.stats.LinkRetries += linkRetries
	r.stats.CohortClients += len(participants)
	r.statsMu.Unlock()

	r.Cfg.Telemetry.RoundDone(r.round, start, end, res.Accuracy, len(collected), quarantined, dropped, skipped)
	r.Cfg.Telemetry.ObserveCohort(r.Fleet.Size(), len(participants))

	// Journal the round serially: per-client attribution for every
	// participant, then one event per quarantine/dropout, then the round
	// summary. Like the sink, the journal is observational only.
	if j := r.Cfg.Journal; j != nil {
		for _, u := range collected {
			j.ObserveUpdate(u.ClientID, u.Iterations, u.TrainTime, u.UploadBytes, u.LinkRetries, false, false)
		}
		for _, u := range discarded {
			j.ObserveUpdate(u.ClientID, u.Iterations, u.TrainTime, u.UploadBytes, u.LinkRetries, u.Dropped, u.Quarantined)
			if u.Quarantined {
				j.Quarantine(r.round, u.ClientID, u.CompletionTime)
			}
			if u.Dropped {
				j.Dropout(r.round, u.ClientID, u.Iterations, start+u.TrainTime)
			}
		}
		j.RoundDone(r.round, end, len(collected), quarantined, dropped, skipped)
		var made, recycled int64
		if fs, ok := r.Fleet.(FleetStats); ok {
			made, recycled = fs.SlotStats()
		}
		j.Cohort(r.round, r.Fleet.Size(), len(participants), made, recycled, upBytes)
	}

	// Return cohort slots to the fleet's pool (no-op for static fleets).
	// Nothing references the clients by now: updates carry metadata only
	// (deltas recycled or nil'd above) and controllers retain just the id.
	for i, c := range participants {
		r.Fleet.Recycle(c)
		participants[i] = nil
	}

	r.round++
	r.now = end
	return res
}

// deltaValid reports whether an update vector may enter aggregation: every
// coordinate finite, and the L2 norm within maxNorm when bounded.
func deltaValid(delta []float64, maxNorm float64) bool {
	var sumsq float64
	for _, v := range delta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		sumsq += v * v
	}
	if math.IsInf(sumsq, 0) {
		return false
	}
	return maxNorm <= 0 || sumsq <= maxNorm*maxNorm
}

// RunUntil runs rounds until the accuracy target is reached (maxRounds as a
// stop-loss) and returns every round result. A target of 0 runs all rounds.
func (r *Runner) RunUntil(target float64, maxRounds int) []RoundResult {
	var out []RoundResult
	for i := 0; i < maxRounds; i++ {
		res := r.RunRound()
		out = append(out, res)
		if target > 0 && res.Accuracy >= target {
			break
		}
	}
	return out
}

// minReduceShard is the smallest per-goroutine parameter count worth a
// goroutine in the weighted reduce; smaller models reduce serially.
const minReduceShard = 2048

// reduceFanIn is the streaming reduce's chunk width: how many client deltas
// stay live between recycle points. Any value yields the same bits (see
// weightedReduce); 8 keeps the live set tiny while amortizing the per-chunk
// goroutine barrier.
const reduceFanIn = 8

// borrowReduceWorkers clamps workers by shard size and the shared CPU-token
// budget; the caller must Return(workers-1) when done. Never below 1 (the
// calling goroutine).
func borrowReduceWorkers(n, workers int) int {
	if workers > n/minReduceShard {
		workers = n / minReduceShard
	}
	if workers > 1 {
		workers = 1 + cputok.Default().Borrow(workers-1)
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// reduceShards runs f over a disjoint cover of [0, n): the calling goroutine
// takes the first shard, workers-1 spawned goroutines the rest. Barrier: all
// shards complete before return.
func reduceShards(n, workers int, f func(lo, hi int)) {
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(w*n/workers, (w+1)*n/workers)
	}
	f(0, n/workers)
	wg.Wait()
}

// weightedReduce adds the weight-normalized (by totalW) mean of the
// collected deltas to flat, streaming the client dimension through fixed
// fan-in chunks and fanning the parameter dimension of each chunk out over
// at most workers goroutines (borrowed from the shared CPU-token budget, so
// a spent budget degrades to the serial loop). After a chunk's barrier its
// deltas are dead; when recycle is non-nil each is handed back immediately,
// bounding the reduce's live delta set to fan-in buffers instead of the
// whole cohort.
//
// Determinism: each shard owns a disjoint index range and accumulates
// clients in slice order; chunking only inserts barriers into that order
// without reordering it, so every element sees exactly the floating-point
// sequence of the serial client-major loop — the result is bit-identical
// for any worker count and any fan-in (TestWeightedReduceDeterministic).
func weightedReduce(flat, agg []float64, collected []Update, totalW float64, workers int, recycle func([]float64)) {
	streamReduce(flat, agg, collected, totalW, workers, reduceFanIn, recycle)
}

// streamReduce is weightedReduce with an explicit fan-in (test seam).
func streamReduce(flat, agg []float64, collected []Update, totalW float64, workers, fanIn int, recycle func([]float64)) {
	n := len(flat)
	if fanIn < 1 {
		fanIn = 1
	}
	workers = borrowReduceWorkers(n, workers)
	defer cputok.Default().Return(workers - 1)
	reduceShards(n, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			agg[j] = 0
		}
	})
	for s := 0; s < len(collected); s += fanIn {
		e := s + fanIn
		if e > len(collected) {
			e = len(collected)
		}
		chunk := collected[s:e]
		reduceShards(n, workers, func(lo, hi int) {
			for _, u := range chunk {
				w := u.Weight / totalW
				d := u.Delta
				for j := lo; j < hi; j++ {
					agg[j] += w * d[j]
				}
			}
		})
		if recycle != nil {
			for i := range chunk {
				recycle(chunk[i].Delta)
			}
		}
	}
	reduceShards(n, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			flat[j] += agg[j]
		}
	})
}

// applyFold finishes the online fold: flat[j] += agg[j]/totalW, sharded over
// borrowed workers. One add and one divide per element regardless of
// sharding, so the result matches the single-goroutine loop bit for bit.
func applyFold(flat, agg []float64, totalW float64, workers int) {
	n := len(flat)
	workers = borrowReduceWorkers(n, workers)
	defer cputok.Default().Return(workers - 1)
	reduceShards(n, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			flat[j] += agg[j] / totalW
		}
	})
}

// onlineFold streams completed updates into the aggregation accumulator in
// participant-index order while the client phase is still running. Whichever
// worker closes the gap at the in-order frontier folds every newly
// contiguous update under the mutex, so the floating-point sequence — and
// each update's validation verdict — is identical at any worker count.
// Folded deltas recycle immediately: peak delta memory is the out-of-order
// completion window (O(workers)), not the cohort.
//
// The fold accumulates unnormalized (agg[j] += w·d[j]) because totalW is
// unknown until the last update lands; applyFold divides once at the end.
// That changes the per-element operation sequence relative to the offline
// reduce's (w/totalW)·d[j], so online and offline rounds are each
// self-deterministic but not bit-identical to each other — the runner picks
// the path from the config, never per-round.
type onlineFold struct {
	agg      []float64
	updates  []Update
	done     []bool
	next     int
	validate bool
	maxNorm  float64
	pool     *deltaPool

	mu     sync.Mutex
	totalW float64
}

// complete marks update i finished and folds the in-order frontier. Callers
// must have published updates[i] before calling (the runner's worker loop
// writes the slot, then calls complete; the fold's mutex orders the reads).
func (f *onlineFold) complete(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done[i] = true
	for f.next < len(f.updates) && f.done[f.next] {
		u := &f.updates[f.next]
		f.next++
		if u.Dropped {
			continue // its partial delta is discarded by the cleanup loop
		}
		if f.validate && !deltaValid(u.Delta, f.maxNorm) {
			u.Quarantined = true
			f.pool.put(u.Delta)
			u.Delta = nil
			continue
		}
		w := u.Weight
		d := u.Delta
		for j := range f.agg {
			f.agg[j] += w * d[j]
		}
		f.totalW += w
		f.pool.put(u.Delta)
		u.Delta = nil
	}
}

// Evaluate computes the model's accuracy on ds, in batches of batch samples
// (0 = single pass over everything).
//
// A network with an arena bound — the runner's global model — is evaluated as
// an inference pass: the arena is reset before every batch, so whatever the
// caller held from it is invalid afterwards, and each batch holds only the
// few activations live at once (nn.NetworkOf.Forward). After a first call has
// sized the arena, a call allocates nothing. Without an arena every layer's
// output comes from the heap, as it always has; the accuracy is the same.
//
// Batches run one after another, each exactly batch samples but the last:
// batch norm normalizes with the statistics of the batch it is given, so the
// split is part of the result, and two batches in flight would double the
// activations held. The cores are used inside a batch instead — per sample in
// the convolutions and pooling, per channel in batch norm, per row block in
// the products — under the CPU-token budget.
func Evaluate(net *nn.Network, ds *data.Dataset, batch int) float64 {
	n := ds.N()
	if n == 0 {
		return 0
	}
	if batch <= 0 || batch > n {
		batch = n
	}
	dim := ds.Dim()
	arena := net.Arena()
	correct := 0
	xd := ds.X.Data()
	for startIdx := 0; startIdx < n; startIdx += batch {
		bs := min(batch, n-startIdx)
		rows := xd[startIdx*dim : (startIdx+bs)*dim]
		var x *tensor.Tensor
		if arena != nil {
			arena.Reset()
			// The arena's only way to a header is with data of that size
			// attached; the header is then pointed at the dataset's rows, and
			// the data it came with is never touched.
			x = tensor.AllocUninitOf[float64](arena, bs, dim)
			x.Rebind(rows)
		} else {
			x = tensor.FromSlice(rows, bs, dim)
		}
		logits := net.Forward(x, false)
		for b := 0; b < bs; b++ {
			if logits.ArgMaxRow(b) == ds.Y[startIdx+b] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
