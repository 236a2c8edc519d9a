// Package fl orchestrates federated-learning rounds over the virtual-time
// simulator: model broadcast, parallel local training on every client with
// per-iteration scheme hooks, shaped uplink/downlink transfers, partial
// aggregation (the earliest 90% of updates, as in the paper's setup), and
// weighted FedAvg aggregation.
//
// Schemes (FedAvg, FedProx, FedAda, FedCA) plug in through the Scheme
// interface: on the server they plan each round (a deadline, per-client
// iteration budgets, FedProx's proximal μ, FedCA's anchor flag); on the
// client their Controller makes its two decisions, to stop local training
// early or send a layer eagerly after an iteration, and to retransmit
// eagerly-sent layers at the end of the round.
//
// # Round stages and concurrency model
//
// Runner.RunRound is a driver over named stages. Every stage but train runs
// serially on the round-driving goroutine; train alone runs client code on
// workers. In order:
//
//   - plan: Scheme.PlanRound(round, History) → RoundPlan.
//   - cohort (materializeCohort): the runner's Selector's ids, else the
//     whole fleet → live clients from Fleet.Materialize, links wired to the
//     observer that watches the workers.
//   - controllers (newControllers): cohort + plan → one Controller per
//     participant from Scheme.NewController, built serially.
//   - train (train): cohort + controllers + plan → one Update and one
//     validation verdict per participant, index-aligned with the cohort.
//     Each client round runs on a worker of cputok's one fan-out,
//     Budget.Run (the caller plus workers borrowed from the CPU-token
//     budget), one client at a time per worker; both Controller methods,
//     AfterIteration and Finalize, run there, concurrently with other
//     clients' controllers. A panic on any worker
//     (a broken plug-in) stops the claims, and Run re-raises it out of
//     RunRound on the caller once every worker has stopped. A client
//     round's phases compute its accumulated delta only when it is read: by
//     a controller (IterState.Accumulated), an eager send or the upload.
//     The worker judges its update right after the client round, the only
//     place validation runs, and hands it to the round's one fold, which
//     folds in participant-index order at the in-order completion frontier,
//     each update once the finished updates decide whether the cut collects
//     it, so it is worker-count invariant. The live deltas are the
//     out-of-order window, which a descheduled worker widens and the delta
//     pool then keeps, and the updates still undecided or late.
//   - cut (cut): updates + verdicts → collected and discarded by completion
//     order and AggregateFraction, the round end time, invalid collected
//     updates moved to Discarded as quarantined, and the quorum's verdict.
//   - aggregate (aggregate): cut + fold → new global parameters by the one
//     weighted FedAvg arithmetic: agg[j] += w·d[j] over the included
//     updates in participant-index order, which the fold summed during
//     train, then any updates the scheme carries (see Scheme), then
//     flat[j] += agg[j]/W once, with the parameter vector sharded over
//     borrowed workers, every element seeing the serial loop's
//     operations, so the result is bit-identical for any worker count.
//     Then the new parameters' Digest, which the round record carries.
//   - recycle (recycle): every delta nobody owns back to the worker pool.
//   - evaluate (evaluate): the RoundResult and its RoundRecord, with the
//     global model's accuracy on the test set.
//   - observe (record): every client-round's Update fed by one walk
//     (observe) to all its consumers — History, the record's sums, the
//     run's one tally (RunStats) and each Observer's ClientRound — then the
//     round's RoundMeta, and the cohort's slots back to the fleet.
//
// RunRound reads the monotonic clock at each boundary between these stages
// (cohort covers selection and materialization) and folds the nanoseconds
// into the run's stage table (Runner.StageTimes) and the round's, which
// every Observer's RoundDone receives in RoundMeta. The timings touch
// nothing else: no round record, run log or RunStats carries them.
//
// Consequences: controller-local state needs no locking (one controller's
// hooks are sequential), but any state shared across controllers or exposed
// through scheme-level accessors that callers may poll while a round runs
// must be synchronized by the scheme. What a client decided in a round is
// in its Update, which the runner folds.
//
// A Runner whose RunRound panicked must not be used again: the round's
// buffers, workers and model are left mid-stage.
package fl

import (
	"fmt"
	"math"

	"fedca/internal/chaos"
	"fedca/internal/compress"
	"fedca/internal/data"
	"fedca/internal/nn"
	"fedca/internal/simnet"
	"fedca/internal/trace"
)

// Config holds the round-level hyperparameters shared by all schemes
// (paper Sec. 5.1).
type Config struct {
	LocalIters  int     // K, default local iterations per round (paper: 125)
	BatchSize   int     // paper: 50
	LR          float64 // per-workload (0.01 / 0.05 / 0.1)
	Momentum    float64
	WeightDecay float64 // per-workload (0.01 / 0.01 / 0.0005)

	// AggregateFraction of the earliest-returning updates the server waits
	// for before closing the round (paper: 0.9). At any fraction each
	// update folds into the mean during the client phase, as soon as the
	// finished updates decide that the cut collects it.
	AggregateFraction float64

	// Participation is the fraction of the fleet that trains each round.
	// Zero or one means the whole fleet; a value in (0,1) asks for a cohort
	// of round(p·n) clients, at least one, which the runner's Selector picks:
	// the scheme's when it implements Selector (Oort), else the fleet's
	// (virtual fleets do). With neither, a cohort below the whole fleet is a
	// construction error.
	Participation float64

	// BaseIterTime is the nominal compute seconds of one local iteration on
	// ideal hardware; per-client factors multiply it.
	BaseIterTime float64

	// ModelBytes is the serialized model size used for transfer times. Zero
	// means NumParams·4 bytes (fp32). Setting it explicitly lets a scaled-
	// down model emulate the communication volume of the paper's full-size
	// one (e.g. 139.4 MB for WRN-28-10).
	ModelBytes float64

	// EvalBatch is the batch size of the accuracy evaluation, which scores
	// the whole test set after every round (0 = one batch of all of it).
	// Batch norm normalizes per batch, so for a model with batch norm it is
	// part of the result; a model without one gets the same accuracy at any
	// batch and is evaluated in chunks of at most 64 samples (see Evaluate).
	EvalBatch int

	// DType selects the client compute precision: "" or "f64" trains workers
	// in float64 (the historical path), "f32" trains them in float32. The
	// master weights, every per-iteration accumulated delta, aggregation and
	// evaluation stay float64 in either mode; a float32 worker adopts the
	// rounded global model at round start (SetFlatParams) and widens its
	// weights when the delta is recomputed, so hooks, compression, validation
	// and the reduce see ordinary float64 vectors. Results are deterministic
	// at any worker count for both dtypes, but the two dtypes are not
	// bit-identical to each other. The runner builds the workers' networks
	// with Networks.New64 or Networks.New32 accordingly.
	DType string

	// Compressor lossily compresses every uploaded layer (eager and final),
	// emulating the quantization/sparsification family of Sec. 2.2. Nil means
	// full-precision uploads. The wire size scales with ModelBytes so a
	// scaled-down model still emulates its full-size counterpart's traffic.
	Compressor compress.Compressor

	// Chaos injects the deterministic fault plans of internal/chaos into
	// every client round: iteration-level dropout (battery, network loss,
	// user action — Sec. 3.1 treats drop-out as the extreme of resource
	// shrinkage; a dropped client's update never reaches the server),
	// transient compute slowdowns, link degradation/outage, transfer
	// retransmissions and corrupted updates. Nil disables injection. Update
	// validation runs either way (see MaxDeltaNorm).
	Chaos *chaos.Engine

	// MinQuorum is the minimum number of valid collected updates required to
	// aggregate a round (≤ 0 means 1). A round falling short — mass dropout,
	// quarantined updates — is skipped: the global model stays unchanged and
	// the skip is recorded in the RoundResult and RunStats.SkippedRounds
	// instead of aborting the run.
	MinQuorum int

	// MaxDeltaNorm, when positive, caps the update-norm bound. Validation runs
	// every round: an update that is not finite, or whose L2 norm exceeds
	// maxStepRatio times the global model's at round start (or MaxDeltaNorm
	// if lower), is moved to the round's Discarded set, so one diverged or
	// corrupted client cannot poison the global model.
	MaxDeltaNorm float64

	// Observers watch the run (see Observer): the telemetry sink, the
	// journal, a test's checker. None costs nothing.
	Observers []Observer
}

// Observer is the one seam through which anything watches a run. It is
// inert: it draws from no RNG and does no virtual-time arithmetic, so
// attaching one never changes a run (TestTelemetryInert).
//
// Both methods run serially on the round-driving goroutine, in the record
// stage, outside every runner lock; each call reaches every observer, in
// Config.Observers order, before the next call is made:
//
//   - ClientRound, once per client-round of round round, which began at
//     start, in observe's walk: the RoundResult's Collected updates, then
//     its Discarded ones. u still carries its Eager list, which the walk
//     clears after the last observer; u is valid only during the call.
//   - RoundDone, once per round, after its last ClientRound, with the
//     record and meta by value (a pointer through the interface would move
//     every round's record to the heap); meta.Stages is valid only during
//     the call.
//
// The one observer that also has the methods ObserveIteration(sec float64),
// UpObserver() and DownObserver() simnet.TransferObserver, as the sink
// does, watches the workers too: NewFleetRunner takes that part from it and
// rejects a second.
type Observer interface {
	ClientRound(round int, start float64, u *Update)
	RoundDone(rec RoundRecord, meta RoundMeta)
}

// RoundMeta is what an observer learns of a round beyond its record; none
// of it enters the record, the run log or RunStats.
type RoundMeta struct {
	Fleet, Cohort int // the population, and the clients materialized from it
	// Materialized and Recycled are a pooling fleet's cumulative slot
	// counts (zero for one that does not pool): slots built up to this
	// round, and clients recycled before this round's cohort went back.
	Materialized, Recycled int64
	// Stages is the round's wall-clock stage table in round order: Rounds
	// is 1 for a stage the round ran, 0 for one it did not. Its observe row
	// stops at the RoundDone calls.
	Stages []StageTime
}

// workerObserver is the workers' half of an Observer: ObserveIteration runs
// on the train stage's workers, concurrently, and the transfer observers on
// the links of every cohort client.
type workerObserver interface {
	ObserveIteration(sec float64)
	UpObserver() simnet.TransferObserver
	DownObserver() simnet.TransferObserver
}

// Validate applies defaults and rejects nonsense.
func (c *Config) Validate(numParams int) error {
	if c.LocalIters <= 0 {
		return fmt.Errorf("fl: LocalIters must be positive, got %d", c.LocalIters)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("fl: BatchSize must be positive, got %d", c.BatchSize)
	}
	// NaN slips past ordered comparisons (NaN<=0 and NaN>1 are both false),
	// so the float knobs are checked for finiteness explicitly.
	if c.LR <= 0 || math.IsNaN(c.LR) || math.IsInf(c.LR, 0) {
		return fmt.Errorf("fl: LR must be positive and finite, got %v", c.LR)
	}
	if math.IsNaN(c.Momentum) || math.IsInf(c.Momentum, 0) {
		return fmt.Errorf("fl: Momentum must be finite, got %v", c.Momentum)
	}
	if math.IsNaN(c.WeightDecay) || math.IsInf(c.WeightDecay, 0) {
		return fmt.Errorf("fl: WeightDecay must be finite, got %v", c.WeightDecay)
	}
	if c.AggregateFraction <= 0 || c.AggregateFraction > 1 || math.IsNaN(c.AggregateFraction) {
		return fmt.Errorf("fl: AggregateFraction must be in (0,1], got %v", c.AggregateFraction)
	}
	if c.Participation < 0 || c.Participation > 1 || math.IsNaN(c.Participation) {
		return fmt.Errorf("fl: Participation must be in [0,1], got %v", c.Participation)
	}
	if c.BaseIterTime <= 0 || math.IsNaN(c.BaseIterTime) || math.IsInf(c.BaseIterTime, 0) {
		return fmt.Errorf("fl: BaseIterTime must be positive and finite, got %v", c.BaseIterTime)
	}
	if c.ModelBytes == 0 {
		c.ModelBytes = float64(numParams) * 4
	}
	if c.ModelBytes < 0 || math.IsNaN(c.ModelBytes) || math.IsInf(c.ModelBytes, 0) {
		return fmt.Errorf("fl: ModelBytes must be non-negative and finite, got %v", c.ModelBytes)
	}
	if c.MinQuorum < 0 {
		c.MinQuorum = 0
	}
	if c.MaxDeltaNorm < 0 || math.IsNaN(c.MaxDeltaNorm) {
		return fmt.Errorf("fl: MaxDeltaNorm must be non-negative, got %v", c.MaxDeltaNorm)
	}
	switch c.DType {
	case "", "f64", "f32":
	default:
		return fmt.Errorf("fl: DType must be \"\", \"f64\" or \"f32\", got %q", c.DType)
	}
	return nil
}

// Client is one simulated FL participant: the loader over its shard of data,
// its compute speed trace and its shaped links. Model state is NOT stored
// here — clients adopt the global parameters at every round start.
type Client struct {
	ID     int
	Loader *data.Loader
	Speed  *trace.SpeedModel
	Up     *simnet.Link
	Down   *simnet.Link
	Weight float64 // aggregation weight (its sample count)
}

// RoundPlan is the server's per-round instruction set.
type RoundPlan struct {
	// Deadline is T_R: the desired local-training deadline in seconds
	// relative to each client's training start. +Inf disables it.
	Deadline float64
	// IterBudget[i] caps client i's local iterations; nil or 0 entries mean
	// the default K.
	IterBudget map[int]int
	// Prox is μ of the proximal term μ/2·‖w − w_global‖² (FedProx): each
	// client adds μ(w − w_global) to its gradients before every optimizer
	// step. 0 means none.
	Prox float64
	// Anchor marks a profiling round (FedCA's anchor rounds): every Update
	// of the round carries it.
	Anchor bool
}

// IterState is what a controller observes after each completed iteration.
type IterState struct {
	Iter    int     // 1-based index of the just-completed iteration
	K       int     // default full-round iteration count
	Budget  int     // iteration cap for this client this round
	Elapsed float64 // local-training wall time so far (virtual seconds)
	// Delta is the accumulated update for a driver outside a Runner that
	// calls a controller itself; a Runner leaves it nil.
	Delta []float64
	// Ranges is the network's layer layout, the same slice every round:
	// read-only.
	Ranges []nn.ParamRange
	src    interface{ accumulated() []float64 } // the Runner's client round
}

// Accumulated returns the update so far (w_now − w_global), flat: Delta if
// set, else the Runner's, computed on the iteration's first read. Read-only
// and valid only during the call (a worker-reused buffer): copy what you keep.
func (st IterState) Accumulated() []float64 {
	if st.src == nil {
		return st.Delta
	}
	return st.src.accumulated()
}

// IterAction is a controller's decision after an iteration.
type IterAction struct {
	Stop bool
	// EagerLayers lists indices into Ranges whose current update should be
	// transmitted to the server immediately.
	EagerLayers []int
	// LRScale, when positive, multiplies the local learning rate for the
	// remaining iterations of this round — the client-autonomous
	// hyperparameter adjustment the paper's Sec. 6 sketches as future work.
	LRScale float64
}

// EagerRecord documents one eager transmission.
type EagerRecord struct {
	Layer int // index into ParamRanges
	Iter  int // iteration after which it was sent
	// Snapshot is the layer's update as the server decodes it (compressed
	// when a compressor is configured). Read-only, and valid until Finalize
	// returns: it aliases a per-worker buffer that holds every snapshot of
	// one client round at its layer's offset, which the worker's next client
	// round overwrites. Controllers must copy any part they keep.
	Snapshot []float64
	SentAt   float64 // virtual enqueue time
	DoneAt   float64 // virtual completion time
	// Retransmitted is set once Finalize has asked for the layer again.
	Retransmitted bool
}

// FinalState is what a controller observes when local training has ended.
type FinalState struct {
	// Dropped: the client vanished mid-round after Iterations iterations.
	// Its update never reaches the server, Delta is nil, and the runner
	// ignores the returned action.
	Dropped    bool
	Iterations int
	// Delta is the final accumulated update. Like IterState.Accumulated it is
	// read-only and valid only during the call (worker-reused buffer).
	Delta  []float64
	Ranges []nn.ParamRange
	// Eager lists the round's eager transmissions in the order they were
	// sent. The slice and its snapshots are worker-reused buffers too: valid
	// until Finalize returns.
	Eager []EagerRecord
}

// FinalAction selects which eagerly-sent layers must be retransmitted with
// the regular end-of-round payload.
type FinalAction struct {
	Retransmit []int // indices into FinalState.Eager
}

// Controller is the per-client, per-round decision maker of a scheme: the
// client's two decisions, neither tied to the worker's dtype. What the
// server fixes for the round (deadline, budgets, μ, anchor) is in the
// RoundPlan the scheme built it from.
//
// Every method runs on a worker goroutine, concurrently with the controllers
// of other clients. Calls on one controller are sequential — AfterIteration
// after every iteration but a dropped client's last, then exactly one
// Finalize closes the round, dropped or not — so controller-local state
// needs no locking; state shared across controllers does.
type Controller interface {
	// AfterIteration observes intra-round state and may stop training or
	// request eager layer transmissions.
	AfterIteration(st IterState) IterAction
	// Finalize decides retransmissions once local training has ended, or
	// observes the dropout (FinalState.Dropped) to reset state it armed.
	Finalize(st FinalState) FinalAction
}

// Scheme plugs a federated optimization strategy into the runner.
//
// PlanRound and NewController run serially on the round-driving goroutine
// (as do the optional Selector and carry hooks); the controllers they build
// then run on workers. A scheme must synchronize any state shared between
// NewController and running controllers, and any accessors it allows
// callers to poll while a round executes.
//
// A scheme may also have the method Carry(round int, late []Update)
// []Update: updates to fold into the round's weighted mean after its
// collected ones, e.g. SAFA's discounted reuse of stale stragglers. The
// runner calls it serially on every round that aggregates, with the round's
// late arrivals that are valid and neither dropped nor quarantined; their
// deltas stay the runner's and are pooled after the round, so a scheme
// copies what it keeps. Each returned update folds with its own Weight, and
// its Delta, which the scheme owns, must be as long as the model (a wrong
// length panics).
type Scheme interface {
	Name() string
	// PlanRound runs on the server before dispatch.
	PlanRound(round int, hist *History) RoundPlan
	// NewController builds client c's controller for this round.
	NewController(c *Client, round int, plan RoundPlan) Controller
}

// Update is the one record of a client-round: the result the server
// receives, and what the client decided and suffered on the way. The train
// worker fills it; the record stage feeds it to every observer.
type Update struct {
	ClientID   int
	Delta      []float64 // the update the server will aggregate
	Weight     float64
	Iterations int

	// Virtual times training began (the download done) and ended (at the
	// last iteration or the dropout); DownloadDone + TrainTime need not round
	// to TrainEnd.
	DownloadDone, TrainEnd float64
	TrainTime              float64 // local compute seconds: TrainEnd − DownloadDone
	TrainLoss              float64 // mean per-iteration training loss (client-reported)
	CompletionTime         float64 // virtual time the full update reached the server
	Dropped                bool    // the client dropped out; the update never arrived
	// Quarantined marks an update that arrived but failed server-side
	// validation (non-finite or norm-bounded delta); it was excluded from
	// aggregation and moved to the round's Discarded set.
	Quarantined bool
	Anchor      bool // a profiling round (RoundPlan.Anchor)
	EarlyStop   bool // the controller stopped training, at any iteration
	UploadBytes float64
	// LinkRetries counts failed uplink transfer attempts this round, eager
	// and final (chaos transfer-failure injection); the airtime is included
	// in UploadBytes. The download's failed attempts are not counted here.
	LinkRetries   int
	EagerSent     int
	Retransmitted int
	// Eager lists the eager transmissions in send order, Snapshot nil. It
	// aliases a per-cohort-slot buffer and is cleared after the record
	// stage's fan-out, as Delta is.
	Eager []EagerRecord
	Chaos *chaos.Plan // the round's fault plan, nil without one; read-only
}

// Selector decides who trains each round: the client-selection family of
// Sec. 2.2 (Oort, REFL) as a Scheme extension, or a virtual fleet's seeded
// participation sample as a Fleet extension. Select appends the round's
// client ids to dst and returns it: k of the fleet's n members, where k is
// the cohort Config.Participation asks for (n at full participation).
// Duplicates are dropped in order; an id the fleet cannot materialize
// panics. The runner fixes its one Selector at construction (NewFleetRunner).
type Selector interface {
	Select(round int, hist *History, n, k int, dst []int) []int
}

// carrier is the optional Scheme method Carry (see Scheme).
type carrier interface {
	Carry(round int, late []Update) []Update
}

// NopController implements Controller with no behaviour — plain FedAvg.
type NopController struct{}

// AfterIteration never stops and never transmits eagerly.
func (NopController) AfterIteration(IterState) IterAction { return IterAction{} }

// Finalize retransmits nothing.
func (NopController) Finalize(FinalState) FinalAction { return FinalAction{} }

// NoDeadline is the RoundPlan deadline value meaning "none".
func NoDeadline() float64 { return math.Inf(1) }
