package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"fedca/internal/cputok"
	"fedca/internal/data"
	"fedca/internal/nn"
	"fedca/internal/tensor"
)

// RoundRecord is the one summary of a completed round: the line a run log
// writes for it (runlog.Record), the round the facade reports (fedca.Round)
// and what every Observer's RoundDone receives. The record stage
// fills it in its one walk over the round's client-rounds (observe). Its
// JSON form is the run log's; zero degradation fields are omitted, so
// fault-free logs carry none of them.
type RoundRecord struct {
	Index    int     `json:"round"`
	Start    float64 `json:"start"` // virtual seconds
	End      float64 `json:"end"`
	Accuracy float64 `json:"accuracy"` // global model accuracy after aggregation
	// Collected counts the updates aggregated (on a skipped round, the
	// below-quorum survivors); Discarded the ones left out: dropouts,
	// quarantined updates and arrivals after the partial-aggregation cut.
	Collected int `json:"collected"`
	Discarded int `json:"discarded"`
	Dropped   int `json:"dropped"`
	// The means are over the collected updates: local iterations, eager
	// transmissions and retransmitted layers per client.
	MeanIterations float64 `json:"mean_iterations"`
	EagerSent      float64 `json:"mean_eager_sent,omitempty"`
	Retransmitted  float64 `json:"mean_retrans,omitempty"`
	// UploadBytes is the uplink payload of every participant, failed
	// attempts included; LinkRetries counts those failed uplink attempts
	// (the downlink's count only in the telemetry's
	// fedca_link_retries_total).
	UploadBytes float64 `json:"upload_bytes"`
	// Skipped marks a round that closed without aggregating: fewer valid
	// updates survived (dropout, quarantine) than the quorum requires. The
	// global model is unchanged.
	Skipped bool `json:"skipped,omitempty"`
	// Quarantined counts updates that arrived but failed validation; they
	// sit in Discarded with Update.Quarantined set.
	Quarantined int `json:"quarantined,omitempty"`
	LinkRetries int `json:"link_retries,omitempty"`
	// Params is the global model the round leaves: the Digest of the master
	// vector after aggregation, the previous round's on a skipped round.
	// Two records that agree here agree on every parameter bit.
	Params Digest `json:"params"`
}

// Duration returns the round's virtual wall time.
func (r RoundRecord) Duration() float64 { return r.End - r.Start }

// Digest is the SHA-256 of a parameter vector: its coordinates' 8-byte
// little-endian IEEE 754 bits, in order. Its text form, JSON included, is
// lowercase hex.
type Digest [sha256.Size]byte

// String returns the hex form.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// MarshalText returns the hex form.
func (d Digest) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, d[:]), nil }

// UnmarshalText reads the hex form, exactly 2·sha256.Size digits.
func (d *Digest) UnmarshalText(text []byte) error {
	if len(text) != hex.EncodedLen(len(d)) {
		return fmt.Errorf("fl: digest of %d hex digits, want %d", len(text), hex.EncodedLen(len(d)))
	}
	_, err := hex.Decode(d[:], text)
	return err
}

// RoundResult is one completed round: its record and the client-rounds
// behind it. The update lists shadow the record's counts of the same names,
// which are their lengths. No update in them holds a Delta: the round has
// pooled every one before it returns.
type RoundResult struct {
	RoundRecord
	Collected []Update
	Discarded []Update
}

// RunStats is the run's tally: one fold of its client-rounds' records
// (Update) and its rounds, by the same rules for every scheme. The scheme
// counts are the behaviour Fig. 8 plots. Eager sends and retransmissions
// count completed client-rounds only. The ByIter counts are indexed by
// iteration, 0 to K: EarlyStopsByIter[k] counts early stops after iteration
// k, EagerByIter[k] standing eager sends sent after it, and
// RetransmitsByIter[k] layers retransmitted by client-rounds of k
// iterations. Snapshot via Runner.Stats, safe to poll from any goroutine
// while rounds execute.
type RunStats struct {
	Rounds        int `json:"rounds"`         // rounds completed (including skipped)
	SkippedRounds int `json:"skipped_rounds"` // rounds closed without aggregation (below quorum)
	Quarantined   int `json:"quarantined"`    // updates rejected by validation
	DroppedRounds int `json:"dropped_rounds"` // client-rounds lost to mid-round dropout
	LinkRetries   int `json:"link_retries"`   // failed uplink transfer attempts that were retransmitted
	CohortClients int `json:"cohort_clients"` // client-rounds materialized into cohorts over the run

	EarlyStops        int   `json:"early_stops"`
	EarlyStopsByIter  []int `json:"early_stops_by_iter"`
	FullRounds        int   `json:"full_rounds"` // completed, neither anchor nor early-stopped
	EagerByIter       []int `json:"eager_by_iter"`
	RetransmitsByIter []int `json:"retransmits_by_iter"`
	AnchorRounds      int   `json:"anchor_rounds"` // dropped ones included
	EagerSentTotal    int   `json:"eager_sent_total"`
	RetransmitsTotal  int   `json:"retransmits_total"`
	AnchorAborts      int   `json:"anchor_aborts"` // anchor client-rounds that dropped
}

// fold adds one client-round to the tally.
func (s *RunStats) fold(u *Update) {
	s.LinkRetries += u.LinkRetries
	if u.Quarantined {
		s.Quarantined++
	}
	if u.Anchor {
		s.AnchorRounds++
	}
	if u.Dropped {
		s.DroppedRounds++
		if u.Anchor {
			s.AnchorAborts++
		}
		return
	}
	switch {
	case u.Anchor:
	case u.EarlyStop:
		s.EarlyStops++
		s.EarlyStopsByIter[u.Iterations]++
	default:
		s.FullRounds++
	}
	s.EagerSentTotal += len(u.Eager)
	for _, e := range u.Eager {
		if e.Retransmitted {
			s.RetransmitsTotal++
			s.RetransmitsByIter[u.Iterations]++
		} else {
			s.EagerByIter[e.Iter]++
		}
	}
}

// Runner drives a full FL training run for one scheme.
type Runner struct {
	Cfg    Config
	Fleet  Fleet
	Scheme Scheme
	Test   *data.Dataset
	Hist   *History

	global  *nn.Network
	flat    []float64
	sel     Selector       // who trains; nil means the whole fleet
	wobs    workerObserver // the one observer watching the workers, or nil
	k       int            // the cohort size Config.Participation asks for
	workers []trainWorker  // dtype-erased training slots (see Config.DType)
	pool    *deltaPool     // recycles Update.Delta vectors across rounds
	aggBuf  []float64      // the fold's accumulator, reused across rounds
	round   int
	now     float64

	// params is the master vector's Digest, kept current by digestParams
	// through its hash state and byte buffer.
	params  Digest
	hasher  hash.Hash
	hashBuf []byte

	// Per-round buffers, reused so that steady-state rounds allocate no
	// cohort-sized slices: the selected ids, the materialized cohort, its
	// controllers, the raw updates and their validation verdicts, the
	// completion order and the fold's bookkeeping.
	cohortIDs []int
	cohort    []*Client
	ctrls     []Controller
	updates   []Update
	eager     [][]EagerRecord // per cohort slot: the records' Eager buffers
	valid     []bool
	order     []int
	seen      map[int]bool
	foldDone  []bool
	job       trainJob

	// clock times the round in progress; RunRound folds it into stages and
	// hands the round's rows (roundStages) to the observers.
	clock       stageClock
	roundStages [numStages]StageTime

	// statsMu guards stats and stages: the round-driving goroutine folds
	// into them serially, but monitors may poll them while a round runs.
	statsMu sync.Mutex
	stats   RunStats
	stages  [numStages]stageTally
}

// Networks builds the runner's models: New64 the float64 global model and
// float64 training slots, New32 the float32 training slots when
// Config.DType is "f32". Every call returns a fresh network of one
// architecture — the same parameters in the same order, identically
// initialized — since the dtypes exchange state through the flat float64
// parameter vector.
type Networks interface {
	New64() *nn.Network
	New32() *nn.NetworkOf[float32]
}

// NewFleetRunner wires a runner over a Fleet: a StaticFleet over a
// pre-materialized client slice, or a virtual fleet where only each round's
// cohort is materialized. The first New64 network becomes the global model
// (its initialization is the run's starting point) and one more network per
// worker executes client training. Worker networks are sized by
// min(CPU-token cap, expected cohort), so a million-client fleet at 1%
// participation builds the same handful of worker models a static testbed
// would.
//
// The runner's one Selector is fixed here: the scheme's when it implements
// Selector, else the fleet's when Config.Participation asks for fewer than
// the whole fleet (an error when the fleet has none), else none. So is the
// one observer that watches the workers (see Observer): a nil observer, or
// a second one watching the workers, is an error.
//
// The global model is always float64 — master weights, aggregation and
// evaluation never narrow. Config.DType "f32" switches only the training
// slots to float32.
func NewFleetRunner(cfg Config, fleet Fleet, scheme Scheme, test *data.Dataset, nets Networks) (*Runner, error) {
	if fleet == nil || fleet.Size() == 0 {
		return nil, fmt.Errorf("fl: no clients")
	}
	global := nets.New64()
	if err := cfg.Validate(global.NumParams()); err != nil {
		return nil, err
	}
	wobs, err := watcherOf(cfg.Observers)
	if err != nil {
		return nil, err
	}
	k := expectedCohort(cfg, fleet.Size())
	sel, ok := scheme.(Selector)
	if !ok && k < fleet.Size() {
		if sel, ok = fleet.(Selector); !ok {
			return nil, fmt.Errorf("fl: Participation %v needs a selecting scheme or fleet", cfg.Participation)
		}
	}
	// One network per potential worker, sized by the CPU-token budget at
	// construction. At round time the runner borrows tokens for however many
	// of these it may actually run concurrently.
	workers := make([]trainWorker, max(1, min(cputok.Default().Cap(), k)))
	pool := &deltaPool{}
	for i := range workers {
		if cfg.DType == "f32" {
			workers[i] = newTrainWorkerOf(nets.New32(), pool, wobs)
		} else {
			workers[i] = newTrainWorkerOf(nets.New64(), pool, wobs)
		}
		if np := workers[i].numParams(); np != global.NumParams() {
			return nil, fmt.Errorf("fl: worker factory built %d params, global model has %d", np, global.NumParams())
		}
	}
	// The global model only ever runs inference (Evaluate, in the record
	// stage), after the train stage has joined every worker: it borrows worker
	// 0's arena instead of holding one of its own. One evaluation batch runs
	// here, its result discarded, so that the largest generation the arena
	// will host lays out its chunks first: every training iteration after it
	// is cut from them, where chunks laid out by training would leave the
	// batch's larger activations to add chunks of their own (DESIGN §15).
	workers[0].lendArena(global)
	if test != nil && test.N() > 0 {
		budget := cputok.Default()
		tok := budget.Cover()
		evalBatch(global, test, 0, evalSplit(global, cfg.EvalBatch, test.N()))
		budget.Return(tok)
	}
	r := &Runner{
		Cfg:     cfg,
		Fleet:   fleet,
		Scheme:  scheme,
		Test:    test,
		Hist:    NewHistory(),
		global:  global,
		flat:    global.FlatParams(),
		sel:     sel,
		wobs:    wobs,
		k:       k,
		workers: workers,
		pool:    pool,
		aggBuf:  make([]float64, global.NumParams()),
		seen:    make(map[int]bool),
		stats: RunStats{
			EarlyStopsByIter:  make([]int, cfg.LocalIters+1),
			EagerByIter:       make([]int, cfg.LocalIters+1),
			RetransmitsByIter: make([]int, cfg.LocalIters+1),
		},
		hasher:  sha256.New(),
		hashBuf: make([]byte, 4096),
	}
	r.digestParams()
	return r, nil
}

// watcherOf returns the one observer in obs watching the workers, if any.
func watcherOf(obs []Observer) (workerObserver, error) {
	var wobs workerObserver
	for i, o := range obs {
		if o == nil {
			return nil, fmt.Errorf("fl: Observers[%d] is nil", i)
		}
		if w, ok := o.(workerObserver); ok {
			if wobs != nil {
				return nil, fmt.Errorf("fl: observers %T and %T both watch the workers; at most one may", wobs, o)
			}
			wobs = w
		}
	}
	return wobs, nil
}

// expectedCohort returns the per-round cohort size a config asks for, the k
// its Selector is handed: round(Participation·n), at least one, when
// Participation is in (0,1), the whole fleet otherwise.
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

// GlobalFlat returns a copy of the current global parameter vector.
func (r *Runner) GlobalFlat() []float64 {
	out := make([]float64, len(r.flat))
	copy(out, r.flat)
	return out
}

// Params returns the global model's Digest, the one the last round's record
// carries (before any round, the initial model's).
func (r *Runner) Params() Digest { return r.params }

// digestParams sets params to the Digest of the master vector. It feeds the
// hash through the runner's byte buffer, a chunk of coordinates at a time,
// and so allocates nothing.
func (r *Runner) digestParams() {
	h, buf, flat := r.hasher, r.hashBuf, r.flat
	h.Reset()
	for len(flat) > 0 {
		n := min(len(flat), len(buf)/8)
		for i, v := range flat[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		h.Write(buf[:8*n])
		flat = flat[n:]
	}
	h.Sum(r.params[:0])
}

// Now returns the current virtual time.
func (r *Runner) Now() float64 { return r.now }

// Stats snapshots the run's tally, which advances once per round. Safe to
// call from any goroutine, including while RunRound executes.
func (r *Runner) Stats() RunStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	s := r.stats
	s.EarlyStopsByIter = slices.Clone(s.EarlyStopsByIter)
	s.EagerByIter = slices.Clone(s.EagerByIter)
	s.RetransmitsByIter = slices.Clone(s.RetransmitsByIter)
	return s
}

// RunRound executes one full round and returns its result. It drives the
// round's stages in order; the package comment lists what each consumes and
// produces and on which goroutines it runs. It reads the monotonic clock at
// every stage boundary (StageTimes).
func (r *Runner) RunRound() RoundResult {
	c := &r.clock
	c.start()
	plan := r.Scheme.PlanRound(r.round, r.Hist)
	c.lap(stagePlan)
	cohort := r.materializeCohort()
	c.lap(stageCohort)
	ctrls := r.newControllers(cohort, plan)
	c.lap(stageControllers)
	updates, valid, fold := r.train(cohort, ctrls, plan)
	c.lap(stageTrain)
	cut := r.cut(updates, valid)
	c.lap(stageCut)
	if !cut.skipped {
		r.aggregate(cut, updates, fold)
		c.lap(stageAggregate)
	}
	r.recycle(cut)
	c.lap(stageRecycle)
	res := r.evaluate(cut)
	c.lap(stageEvaluate)
	meta := r.record(&res, cohort)
	c.lap(stageObserve)
	r.roundDone(res.RoundRecord, meta)
	r.round++
	r.now = cut.end
	return res
}

// The stages RunRound times, in the order a round runs them: cohort is
// selection and materialization, and observe is the record stage after the
// evaluation, up to the observers' RoundDone calls.
const (
	stagePlan = iota
	stageCohort
	stageControllers
	stageTrain
	stageCut
	stageAggregate
	stageRecycle
	stageEvaluate
	stageObserve
	numStages
)

var stageNames = [numStages]string{"plan", "cohort", "controllers", "train", "cut", "aggregate", "recycle", "evaluate", "observe"}

// StageTime is one row of a wall-clock stage table, a run's or one round's
// (RoundMeta.Stages): how many rounds ran the stage (a skipped round does
// not aggregate) and the seconds they spent in it, read from the monotonic
// clock on the round-driving goroutine. It times the simulator, not the
// simulated federation: no timer value enters a round record, the run log
// or RunStats.
type StageTime struct {
	Stage   string  `json:"stage"`
	Rounds  int     `json:"rounds"`
	Seconds float64 `json:"seconds"`
}

// stageTally is a stage's row of the run's table, in nanoseconds.
type stageTally struct {
	rounds int
	ns     int64
}

// stageClock times one round: lap charges the wall time since the last
// boundary to a stage and marks it run.
type stageClock struct {
	last time.Time
	ns   [numStages]int64
	ran  [numStages]bool
}

func (c *stageClock) start() {
	*c = stageClock{last: time.Now()}
}

func (c *stageClock) lap(stage int) {
	now := time.Now()
	c.ns[stage] = int64(now.Sub(c.last))
	c.ran[stage] = true
	c.last = now
}

// roundDone closes the round: its clock goes into the run's stage table
// and, as the round's own table, into meta, which every observer's RoundDone
// receives with the record. Serial.
func (r *Runner) roundDone(rec RoundRecord, meta RoundMeta) {
	c := &r.clock
	r.statsMu.Lock()
	for s, ran := range c.ran {
		row := StageTime{Stage: stageNames[s]}
		if ran {
			r.stages[s].rounds++
			r.stages[s].ns += c.ns[s]
			row.Rounds, row.Seconds = 1, time.Duration(c.ns[s]).Seconds()
		}
		r.roundStages[s] = row
	}
	r.statsMu.Unlock()
	meta.Stages = r.roundStages[:]
	for _, o := range r.Cfg.Observers {
		o.RoundDone(rec, meta)
	}
}

// StageTimes returns the run's wall-clock stage table, one row per stage in
// round order. Safe to call from any goroutine, including while RunRound
// executes.
func (r *Runner) StageTimes() []StageTime {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	out := make([]StageTime, numStages)
	for s, st := range r.stages {
		out[s] = StageTime{Stage: stageNames[s], Rounds: st.rounds, Seconds: time.Duration(st.ns).Seconds()}
	}
	return out
}

// resize returns (*buf)[:n], growing the reused buffer first if it is too
// small. The contents are whatever the previous round left.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// selectCohort decides which client ids train this round, reusing the
// runner's id buffer: the Selector's choice, deduplicated in order, or the
// whole fleet when the runner has none.
func (r *Runner) selectCohort() []int {
	ids := r.cohortIDs[:0]
	if r.sel == nil {
		for id := range r.Fleet.Size() {
			ids = append(ids, id)
		}
	} else {
		ids = r.sel.Select(r.round, r.Hist, r.Fleet.Size(), r.k, ids)
		clear(r.seen)
		kept := ids[:0]
		for _, id := range ids {
			if !r.seen[id] {
				r.seen[id] = true
				kept = append(kept, id)
			}
		}
		ids = kept
	}
	r.cohortIDs = ids
	return ids
}

// materializeCohort is the cohort stage: the selected ids become live
// clients — pooled slots for a virtual fleet, lookups for a static one — with
// their links wired to the worker observer when there is one. Out: the
// cohort, in selection order.
func (r *Runner) materializeCohort() []*Client {
	cohort := r.cohort[:0]
	t := r.wobs
	for _, id := range r.selectCohort() {
		c, err := r.Fleet.Materialize(id)
		if err != nil {
			// The Selector named a client the fleet does not have: a broken
			// plug-in, not a runtime condition.
			panic(fmt.Sprintf("fl: cohort names client %d, which the fleet cannot materialize: %v", id, err))
		}
		if t != nil {
			// Observers are passive (simnet.TransferObserver): the links'
			// arithmetic, and therefore the run, is unchanged by them.
			c.Up.Observer, c.Down.Observer = t.UpObserver(), t.DownObserver()
		}
		cohort = append(cohort, c)
	}
	r.cohort = cohort
	return cohort
}

// newControllers is the controllers stage: one Controller per participant,
// index-aligned with the cohort. They are built serially (the Scheme
// contract): schemes may mutate shared state (e.g. FedCA's per-client
// profiles) during construction without locking against other NewController
// calls — though stats they expose to concurrent pollers still need locks.
func (r *Runner) newControllers(cohort []*Client, plan RoundPlan) []Controller {
	ctrls := resize(&r.ctrls, len(cohort))
	for i, c := range cohort {
		ctrls[i] = r.Scheme.NewController(c, r.round, plan)
	}
	return ctrls
}

// train is the client phase. Each participant's client round runs on a
// worker slot of cputok's one fan-out: the calling goroutine, and workers
// borrowed from the shared CPU-token budget, so a spent budget degrades to
// the serial path. A worker out of clients hands its token back, so the ones
// still training can fan out in the stage's tail. Out: the updates and their
// verdicts, index-aligned with the cohort and so independent of which worker
// ran what, and the fold of the updates the cut includes.
func (r *Runner) train(cohort []*Client, ctrls []Controller, plan RoundPlan) ([]Update, []bool, *onlineFold) {
	j := &r.job
	*j = trainJob{r: r, cohort: cohort, ctrls: ctrls, bound: r.deltaBound(),
		in:      roundInput{global: r.flat, cfg: &r.Cfg, plan: plan, round: r.round, start: r.now},
		updates: resize(&r.updates, len(cohort)),
		eager:   resize(&r.eager, len(cohort)),
		valid:   resize(&r.valid, len(cohort)),
	}
	budget := cputok.Default()
	extra := budget.Borrow(min(len(r.workers), len(cohort)) - 1)
	j.fold = r.newFold(j.updates, j.valid, extra+1)
	budget.Run(extra, len(cohort), j)
	return j.updates, j.valid, j.fold
}

// trainJob is one train stage's work, kept in the Runner so that handing it
// to the fan-out allocates nothing: Do trains participant i on worker slot w,
// judges its update at once — the only place deltaValid runs — and hands it
// to the fold.
type trainJob struct {
	r       *Runner
	cohort  []*Client
	ctrls   []Controller
	in      roundInput // what every client round of the stage shares
	bound   float64
	updates []Update
	eager   [][]EagerRecord
	valid   []bool
	fold    *onlineFold
}

func (j *trainJob) Do(i, w int) {
	// A client round that panics never reaches the frontier, so the workers
	// waiting on the fold must stop waiting for it.
	folded := false
	defer func() {
		if !folded {
			j.fold.abort()
		}
	}()
	in := j.in
	in.c, in.ctrl, in.eager = j.cohort[i], j.ctrls[i], j.eager[i][:0]
	j.updates[i] = j.r.workers[w].run(in)
	j.eager[i] = j.updates[i].Eager
	j.valid[i] = deltaValid(j.updates[i].Delta, j.bound)
	j.fold.complete(i)
	folded = true
}

// newFold returns the round's fold (see onlineFold), which recycles the
// deltas it passes.
func (r *Runner) newFold(updates []Update, valid []bool, workers int) *onlineFold {
	clear(r.aggBuf)
	done := resize(&r.foldDone, len(updates))
	clear(done)
	return newOnlineFold(r.aggBuf, updates, valid, done, r.pool, workers, cutTake(r.Cfg.AggregateFraction, len(updates)))
}

// roundCut is the cut stage's decision about a round's updates.
type roundCut struct {
	start, end           float64 // virtual time the round opened and closes
	collected, discarded []Update
	// late are the participants that arrived valid after the cut, in
	// completion order, indexing the round's updates.
	late        []int
	quarantined int  // collected updates that failed validation, now in discarded
	skipped     bool // fewer valid collected updates than the quorum: no aggregation
}

// cutTake is how many of n updates a cut at fraction f collects: ⌈f·n⌉ ≥ 1.
func cutTake(f float64, n int) int {
	return max(1, int(math.Ceil(f*float64(n))))
}

// completesBefore is the cut's order: completion time (+Inf if dropped), then id.
func completesBefore(a, b *Update) bool {
	if a.CompletionTime != b.CompletionTime {
		return a.CompletionTime < b.CompletionTime
	}
	return a.ClientID < b.ClientID
}

// cut closes the round. The earliest AggregateFraction of the updates by
// virtual completion time (ties by client id) are collected; dropped clients
// sort last (CompletionTime = +Inf) and are never collected, even when the
// survivors fall short of the target. The round ends when the last collected
// update arrives or, with no survivors, when the last client's training
// ended (its download and burned compute), so virtual time still advances.
// Then one loop moves every collected update whose verdict failed to
// Discarded, marked Quarantined; and a round left with fewer valid updates
// than the quorum is skipped and recorded — the model stays as it is and the
// run continues. In: the updates and their verdicts. Out: the roundCut,
// whose late reuses the completion order's buffer.
func (r *Runner) cut(updates []Update, valid []bool) roundCut {
	order := resize(&r.order, len(updates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return completesBefore(&updates[order[a]], &updates[order[b]])
	})
	take := cutTake(r.Cfg.AggregateFraction, len(updates))
	c := roundCut{
		start:     r.now,
		end:       r.now,
		collected: make([]Update, 0, take),
		discarded: make([]Update, 0, len(updates)-take),
	}
	for i, oi := range order {
		if u := updates[oi]; i < take && !u.Dropped {
			u.Quarantined = !valid[oi]
			c.collected = append(c.collected, u)
			c.end = u.CompletionTime
		} else {
			c.discarded = append(c.discarded, u)
		}
	}
	if len(c.collected) == 0 {
		for _, u := range updates {
			c.end = max(c.end, u.TrainEnd)
		}
	}
	kept := c.collected[:0]
	for _, u := range c.collected {
		if u.Quarantined {
			c.discarded = append(c.discarded, u)
			c.quarantined++
		} else {
			kept = append(kept, u)
		}
	}
	c.collected = kept
	c.skipped = len(c.collected) < max(1, r.Cfg.MinQuorum)
	// The filter writes at or before the place it reads.
	c.late = order[:0]
	for _, i := range order[take:] {
		if !updates[i].Dropped && valid[i] {
			c.late = append(c.late, i)
		}
	}
	return c
}

// aggregate moves the global model by the one weighted FedAvg arithmetic:
// agg[j] += w·d[j] over the round's included updates in participant-index
// order — folded during train — then over the updates the scheme carries
// (carry), then flat[j] += agg[j]/W once, W the sum of the folded weights in
// the same order. Then SetFlatParams and digestParams. In: the cut, the
// updates and the fold. Out: the new global parameters and their Digest.
// Serial, with the parameter vector sharded over borrowed workers
// (reduceShards): each shard runs the serial loop over its range, so no bit
// depends on the worker count (TestWeightedReduceDeterministic).
func (r *Runner) aggregate(c roundCut, updates []Update, fold *onlineFold) {
	carried := r.carry(c, updates)
	applyMean(r.flat, r.aggBuf, carried, fold.totalW, len(r.workers))
	r.global.SetFlatParams(r.flat)
	r.digestParams()
}

// foldDelta is the one fold of an update into the accumulator, agg[j] +=
// w·d[j]: the included updates and the carried ones go through it.
func foldDelta(agg []float64, w float64, d []float64) {
	d = d[:len(agg)]
	for j := range agg {
		agg[j] += w * d[j]
	}
}

// applyMean finishes the one arithmetic: it folds the carried updates into
// agg after the sum of weight totalW already there, then adds agg[j]/W to
// every flat[j], W being totalW plus the carried weights; sharded over at
// most workers goroutines.
func applyMean(flat, agg []float64, carried []Update, totalW float64, workers int) {
	for _, u := range carried {
		totalW += u.Weight
	}
	reduceShards(len(flat), workers, func(lo, hi int) {
		for _, u := range carried {
			foldDelta(agg[lo:hi], u.Weight, u.Delta[lo:hi])
		}
		for j := lo; j < hi; j++ {
			flat[j] += agg[j] / totalW
		}
	})
}

// carry asks a scheme with the Carry method (see Scheme) for the updates to
// fold after the collected ones, handing it the cut's late arrivals; nil
// for any other scheme. Serial.
func (r *Runner) carry(c roundCut, updates []Update) []Update {
	cr, ok := r.Scheme.(carrier)
	if !ok {
		return nil
	}
	late := make([]Update, len(c.late))
	for k, i := range c.late {
		late[k] = updates[i]
	}
	carried := cr.Carry(r.round, late)
	for _, u := range carried {
		if len(u.Delta) != len(r.flat) {
			panic(fmt.Sprintf("fl: Carry returned a delta of %d parameters, the model has %d", len(u.Delta), len(r.flat)))
		}
	}
	return carried
}

// recycle returns the round's dead update vectors to the worker pool. The
// ownership rule: whoever pools a delta nils its Update.Delta — the fold
// already did for every update but the late ones — so every delta still set
// here is pooled, and no RoundResult holds a delta. Carried deltas are the
// scheme's and never pass through here. Serial.
func (r *Runner) recycle(c roundCut) {
	for _, us := range [][]Update{c.collected, c.discarded} {
		for i := range us {
			r.pool.put(us[i].Delta)
			us[i].Delta = nil
		}
	}
}

// evaluate opens the record stage: the RoundResult of the cut, with the
// global model's accuracy on the test set. Serial.
func (r *Runner) evaluate(c roundCut) RoundResult {
	res := RoundResult{
		RoundRecord: RoundRecord{
			Index:       r.round,
			Start:       c.start,
			End:         c.end,
			Skipped:     c.skipped,
			Quarantined: c.quarantined,
			Params:      r.params,
		},
		Collected: c.collected,
		Discarded: c.discarded,
	}
	if r.Test != nil {
		res.Accuracy = Evaluate(r.global, r.Test, r.Cfg.EvalBatch)
	}
	return res
}

// record closes the books on the evaluated round: observe, the round's
// RoundMeta but its stage table (read before the cohort's slots go back),
// and the cohort's slots back to the fleet. Serial.
func (r *Runner) record(res *RoundResult, cohort []*Client) RoundMeta {
	r.observe(res, len(cohort))
	meta := RoundMeta{Fleet: r.Fleet.Size(), Cohort: len(cohort)}
	// A pooling fleet (expcfg.VirtualFleet) reports its slot counts.
	if fs, ok := r.Fleet.(interface{ SlotStats() (int64, int64) }); ok {
		meta.Materialized, meta.Recycled = fs.SlotStats()
	}

	// Return cohort slots to the fleet's pool (no-op for static fleets).
	// Nothing references the clients by now: updates carry metadata only
	// (deltas recycled or nil'd). The round's controllers are done too.
	for i, cl := range cohort {
		r.Fleet.Recycle(cl)
		cohort[i] = nil
	}
	clear(r.ctrls)
	return meta
}

// observe is the one walk over a round's client-rounds. It feeds each
// Update to History (the survivors' timings, fresh even on skipped rounds;
// quarantined updates are distrusted), the round's record (counts, sums and
// the means over Collected), RunStats and every Observer's ClientRound,
// walking Collected, then Discarded — the journal's event order, and its
// attribution table's admission order once full — and clears the records'
// Eager lists. statsMu is never held across an observer.
func (r *Runner) observe(res *RoundResult, cohort int) {
	rec := &res.RoundRecord
	rec.Collected, rec.Discarded = len(res.Collected), len(res.Discarded)
	var sumIter, sumEager, sumRetr float64
	for k, us := range [][]Update{res.Collected, res.Discarded} {
		for i := range us {
			u := &us[i]
			if k == 0 {
				r.Hist.Observe(*u)
				sumIter += float64(u.Iterations)
				sumEager += float64(u.EagerSent)
				sumRetr += float64(u.Retransmitted)
			}
			if u.Dropped {
				rec.Dropped++
			}
			rec.LinkRetries += u.LinkRetries
			rec.UploadBytes += u.UploadBytes
			r.statsMu.Lock()
			r.stats.fold(u)
			r.statsMu.Unlock()
			for _, o := range r.Cfg.Observers {
				o.ClientRound(rec.Index, rec.Start, u)
			}
			u.Eager = nil
		}
	}
	if n := float64(rec.Collected); n > 0 {
		rec.MeanIterations = sumIter / n
		rec.EagerSent = sumEager / n
		rec.Retransmitted = sumRetr / n
	}
	r.statsMu.Lock()
	r.stats.Rounds++
	if rec.Skipped {
		r.stats.SkippedRounds++
	}
	r.stats.CohortClients += cohort
	r.statsMu.Unlock()
}

// maxStepRatio bounds an update's L2 norm at this multiple of the global
// model's at round start; legitimate updates measure at most 0.135·‖θ‖.
const maxStepRatio = 10

// deltaBound is the round's update-norm bound, read serially from the model
// at round start: maxStepRatio·‖θ‖, lowered to MaxDeltaNorm when positive.
func (r *Runner) deltaBound() float64 {
	bound := maxStepRatio * math.Sqrt(sumSquares(r.flat))
	if r.Cfg.MaxDeltaNorm > 0 {
		bound = min(bound, r.Cfg.MaxDeltaNorm)
	}
	return bound
}

// deltaValid reports whether an update vector may enter aggregation: its L2
// norm within bound. A NaN, ±Inf or overflowing sum fails the comparison.
func deltaValid(delta []float64, bound float64) bool {
	return sumSquares(delta) <= bound*bound
}

func sumSquares(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// minReduceShard is the smallest per-goroutine parameter count worth a
// goroutine in the apply; smaller models reduce serially.
const minReduceShard = 2048

// reduceShards runs f over a disjoint cover of [0, n) through cputok's one
// fan-out: one shard per worker, at most workers of them and none under
// minReduceShard parameters, the workers past the calling goroutine borrowed
// from the shared CPU-token budget. Barrier: all shards complete before
// return.
func reduceShards(n, workers int, f func(lo, hi int)) {
	budget := cputok.Default()
	extra := 0
	if workers = min(workers, n/minReduceShard); workers > 1 {
		extra = budget.Borrow(workers - 1)
	}
	budget.Run(extra, extra+1, &shards{n: n, k: extra + 1, f: f})
}

// shards is one reduceShards call: Do runs f over the i-th of k shards.
type shards struct {
	n, k int
	f    func(lo, hi int)
}

func (s *shards) Do(i, _ int) { s.f(i*s.n/s.k, (i+1)*s.n/s.k) }

// onlineFold streams completed updates into the aggregation accumulator in
// participant-index order while the client phase is still running. Whichever
// worker closes the gap at the in-order frontier passes every newly
// contiguous update it can under the mutex, so the floating-point sequence
// is identical at any worker count. An update the cut cannot collect — its
// verdict failed (the cut quarantines it) or its client dropped — is
// recycled unfolded. Any other waits at the frontier until the finished
// updates decide its place in the cut, the first take in completesBefore
// order: it is in once n−take finished updates sort after it, out once take
// sort before it. One in is folded and recycled; one out keeps its delta for
// Carry (recycle pools it after the cut). Once every update has finished
// every one is decided, so the fold folds exactly the cut's collected valid
// updates (TestFoldDecidesTheCut); a whole-cohort cut decides each as it
// finishes.
//
// The window is bounded: a worker whose finished update lies window (the
// stage's worker count) or more places past the frontier waits while the
// frontier's client is still training, instead of training client after
// client while one worker is descheduled or training a long client. A
// frontier that has finished but is undecided waits on other completions,
// so it never holds a worker (TestFoldLiveness). On a whole-cohort cut,
// then, at most window−1 finished updates sit inside the window and a
// worker either waits past it with its finished update or trains one in a
// vector it took at download, so the delta pool, which keeps every vector
// it was handed, holds fewer than 2·window vectors whatever the scheduling;
// a partial cut adds its undecided and late ones.
// Waiting reorders no fold, so no bit moves. A panicking client round aborts
// the fold: every waiter is woken and none waits again, so the panic reaches
// the caller.
type onlineFold struct {
	agg     []float64
	updates []Update
	valid   []bool
	done    []bool
	next    int
	pool    *deltaPool // takes back every delta the fold passes
	window  int
	take    int

	mu      sync.Mutex
	moved   sync.Cond // on mu: an update finished, or the fold aborted
	aborted bool
	totalW  float64
}

// newOnlineFold returns a fold of updates into agg with nothing done yet,
// for a cut collecting take of them, whose finished updates lie less than
// window places past a frontier still training.
func newOnlineFold(agg []float64, updates []Update, valid, done []bool, pool *deltaPool, window, take int) *onlineFold {
	f := &onlineFold{agg: agg, updates: updates, valid: valid, done: done, pool: pool, window: window, take: take}
	f.moved.L = &f.mu
	return f
}

// complete marks update i finished, folds the in-order frontier, and waits
// while i lies window or more places past a frontier still training.
// Callers must have published updates[i] and its verdict before calling
// (the train stage's worker writes both, then calls complete; the fold's
// mutex orders the reads).
func (f *onlineFold) complete(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done[i] = true
	for ; f.next < len(f.updates) && f.done[f.next]; f.next++ {
		u := &f.updates[f.next]
		if !u.Dropped && f.valid[f.next] {
			decided, in := f.decide(f.next)
			if !decided {
				break
			}
			if !in {
				continue // late: Carry may read its delta
			}
			foldDelta(f.agg, u.Weight, u.Delta)
			f.totalW += u.Weight
		}
		f.pool.put(u.Delta)
		u.Delta = nil
	}
	f.moved.Broadcast() // the frontier may have finished, advanced or not
	for i >= f.next+f.window && !f.done[f.next] && !f.aborted {
		f.moved.Wait()
	}
}

// decide reports whether the finished updates decide finished update i's
// place in the cut, and if so whether the cut collects it.
func (f *onlineFold) decide(i int) (decided, in bool) {
	n := len(f.updates)
	if f.take >= n {
		return true, true
	}
	before, after := 0, 0
	for k, d := range f.done {
		switch {
		case !d || k == i:
		case completesBefore(&f.updates[k], &f.updates[i]):
			before++
		default:
			after++
		}
	}
	in = after >= n-f.take
	return in || before >= f.take, in
}

// abort wakes every worker waiting in complete and lets none wait again: a
// client round panicked, and its update will never reach the frontier.
func (f *onlineFold) abort() {
	f.mu.Lock()
	f.aborted = true
	f.mu.Unlock()
	f.moved.Broadcast()
}

// evalChunk is the batch a network without batch norm is evaluated in: the
// smallest that measured no slower than 256 on the benchmark's CNN, and a
// quarter of the activations held at once (DESIGN §15).
const evalChunk = 64

// Evaluate computes the model's accuracy on ds, in batches of batch samples
// (0 = single pass over everything) — or, for a network without batch norm
// (nn.NetworkOf.BatchCoupled), in chunks of at most evalChunk samples.
//
// A network with an arena bound — the runner's global model, on worker 0's
// arena — is evaluated as an inference pass: the arena is reset before every
// batch, so whatever the caller held from it is invalid afterwards, and each
// batch holds only the few activations live at once (nn.NetworkOf.Forward):
// a layer that can writes its output over the activation it is handed, and a
// residual block sums into its body's result, so the WRN holds a block's
// input and that result.
// Once one batch has sized the arena — on the runner's, NewFleetRunner runs
// it before any training — a call allocates nothing. Without an arena every
// layer's output comes from the heap, as it always has; the accuracy is the
// same.
//
// Batches run one after another, each exactly batch samples but the last
// when the network holds a batch norm: it normalizes with the statistics of
// the batch it is given, so the split is part of the result. Without one,
// every sample gets the same logits whatever the split, and smaller chunks
// hold fewer activations at once. Two batches in flight would double the
// activations held; the cores are used inside a batch instead — per sample
// in the convolutions and pooling, per channel in batch norm, per row block
// in the products — under the CPU-token budget.
func Evaluate(net *nn.Network, ds *data.Dataset, batch int) float64 {
	n := ds.N()
	if n == 0 {
		return 0
	}
	batch = evalSplit(net, batch, n)
	correct := 0
	for start := 0; start < n; start += batch {
		correct += evalBatch(net, ds, start, min(batch, n-start))
	}
	return float64(correct) / float64(n)
}

// evalBatch runs samples [start, start+bs) of ds through net as one
// inference batch (evalForward) and returns how many of them it classifies
// correctly.
func evalBatch(net *nn.Network, ds *data.Dataset, start, bs int) int {
	logits := evalForward(net, ds, start, bs)
	correct := 0
	for b := 0; b < bs; b++ {
		if logits.ArgMaxRow(b) == ds.Y[start+b] {
			correct++
		}
	}
	return correct
}

// evalForward returns net's logits for samples [start, start+bs) of ds, on
// net's arena (reset first) when one is bound. The float64 model reads the
// dataset's float32 rows widened, into a batch from that arena, or from the
// heap when none is bound.
func evalForward(net *nn.Network, ds *data.Dataset, start, bs int) *tensor.Tensor {
	dim := ds.Dim()
	arena := net.Arena()
	var x *tensor.Tensor
	if arena != nil {
		arena.Reset()
		x = tensor.AllocUninitOf[float64](arena, bs, dim)
	} else {
		x = tensor.New(bs, dim)
	}
	xd := x.Data()
	for i, v := range ds.X.Data()[start*dim : (start+bs)*dim] {
		xd[i] = float64(v)
	}
	return net.Forward(x, false)
}

// evalSplit returns the batch Evaluate runs n samples of net in, asked for
// batch (0 = all n): exactly that for a network with batch norm, at most
// evalChunk for one without.
func evalSplit(net *nn.Network, batch, n int) int {
	if batch <= 0 || batch > n {
		batch = n
	}
	if !net.BatchCoupled() {
		batch = min(batch, evalChunk)
	}
	return batch
}
