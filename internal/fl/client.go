package fl

import (
	"fmt"
	"math"
	"sync"

	"fedca/internal/chaos"
	"fedca/internal/data"
	"fedca/internal/nn"
	"fedca/internal/tensor"
)

// deltaPool recycles the NumParams-sized update vectors: each worker's update
// in progress and the ones handed to the server as Update.Delta. A client
// round takes its vector at download, accumulates into it, compresses it in
// place at upload and hands it over; a dropped round puts it back at once.
// An uploaded delta lives until the fold passes it, or, for a late update,
// until the cut has handed it to Carry; then the fold or Runner.recycle puts
// it back, so steady-state rounds allocate no fresh update vectors and no
// RoundResult holds one.
// Recycled slices carry stale data; every taker must overwrite all elements
// before reading any. It is a plain free list: a sync.Pool of slices would
// box a slice header on every put, and the vectors it holds between rounds
// are the ones the next round takes again: as many as a round held at once,
// in progress or uploaded, fewer than twice the train stage's worker count
// when the cut takes the whole cohort (see onlineFold).
type deltaPool struct {
	mu   sync.Mutex
	free [][]float64
}

func (dp *deltaPool) get(n int) []float64 {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if k := len(dp.free); k > 0 {
		s := dp.free[k-1]
		dp.free = dp.free[:k-1]
		if len(s) == n {
			return s
		}
	}
	return make([]float64, n)
}

func (dp *deltaPool) put(s []float64) {
	if s != nil {
		dp.mu.Lock()
		dp.free = append(dp.free, s)
		dp.mu.Unlock()
	}
}

// trainWorkerOf is one training slot: a dtype-concrete network and the state
// its client rounds reuse across clients and rounds. The arena every layer
// bump-allocates from resets once per training iteration, so after a warmup
// iteration has sized its slabs, steady-state iterations allocate nothing,
// and after a warmup round neither does the client round around them. One
// goroutine at a time owns a worker, so none of this is shared; the update
// vectors it draws from the runner's pool flow back through the runner.
type trainWorkerOf[F tensor.Float] struct {
	net    *nn.NetworkOf[F]
	arena  *tensor.Arena
	ranges []nn.ParamRange
	opt    *nn.SGDOf[F]
	y      []int
	pool   *deltaPool
	obs    workerObserver // nil when no observer watches the workers

	// One client round's eager snapshots. A layer is sent at most once per
	// round, so one NumParams-long vector holds every snapshot of the round,
	// each at its own layer's offset. standing is per layer: sent this
	// round, and — once Finalize has answered — not retransmitted.
	snap     []float64
	standing []bool

	round clientRound[F]
}

// newTrainWorkerOf wraps net in a worker drawing update vectors from pool
// and reporting its iterations to obs (nil: to nobody), and binds a fresh
// arena to it.
func newTrainWorkerOf[F tensor.Float](net *nn.NetworkOf[F], pool *deltaPool, obs workerObserver) *trainWorkerOf[F] {
	ranges := net.ParamRanges()
	w := &trainWorkerOf[F]{
		net: net, arena: tensor.NewArena(), ranges: ranges,
		opt: nn.NewSGDOf[F](0, 0, 0), pool: pool, obs: obs,
		snap:     make([]float64, net.NumParams()),
		standing: make([]bool, len(ranges)),
	}
	net.SetArena(w.arena)
	return w
}

// trainWorker is the dtype-erased handle the runner schedules client rounds
// onto: a float64 and a float32 worker run the identical round protocol, so
// the runner never branches on precision.
type trainWorker interface {
	run(in roundInput) Update
	numParams() int
	// lendArena binds net to the worker's arena, for a network that runs
	// only while the worker is idle.
	lendArena(net *nn.Network)
}

func (w *trainWorkerOf[F]) numParams() int { return w.net.NumParams() }

func (w *trainWorkerOf[F]) lendArena(net *nn.Network) { net.SetArena(w.arena) }

// alloc draws a tensor from the worker's arena for a producer that writes
// every element — the loader filling a batch, the loss writing dlogits — so
// its contents are arbitrary, not zero.
func (w *trainWorkerOf[F]) alloc(shape ...int) *tensor.TensorOf[F] {
	return tensor.AllocUninitOf[F](w.arena, shape...)
}

// proxStep adds the proximal term's gradient μ(w − w_global) to every
// parameter gradient (RoundPlan.Prox). The reference point w_global stays
// float64; the difference is formed at full precision and narrowed once per
// element.
func proxStep[F tensor.Float](mu float64, params []*nn.ParamOf[F], globalFlat []float64) {
	off := 0
	for _, par := range params {
		w := par.Value.Data()
		g := par.Grad.Data()
		for j := range w {
			g[j] += F(mu * (float64(w[j]) - globalFlat[off+j]))
		}
		off += len(w)
	}
}

// roundInput is what the runner hands a worker for one client round. round
// is the 0-based round index, which keys the fault plan when cfg.Chaos is
// set; eager is the client's cohort-slot buffer the eager transmissions are
// appended to.
type roundInput struct {
	c      *Client
	ctrl   Controller
	global []float64
	cfg    *Config
	plan   RoundPlan
	round  int
	start  float64 // the round's virtual start time
	eager  []EagerRecord
}

// clientRound is one client round on a worker, as phases over the state they
// hand on: download, iterate and decide (with its eager sends) per iteration,
// then drop, or finish (Finalize and retransmits) and upload. Training math
// runs for real, time is virtual, and the Update is the client-round's record.
//
// Everything the server, the hooks and the wire see is float64 regardless of
// F: a float32 worker narrows the global model once at SetFlatParams and
// widens its weights when the delta is computed, so only Forward/Backward/SGD
// run in reduced precision.
type clientRound[F tensor.Float] struct {
	roundInput
	w              *trainWorkerOf[F]
	cplan          *chaos.Plan
	budget, dropAt int // dropAt 0: no dropout
	upBytes        float64
	upRetries      int // with upBytes, the uplink's counters at round start
	now, lossSum   float64
	iter           int       // iterations completed
	delta          []float64 // the update, from the pool; upload hands it over
	deltaIter      int       // the iteration whose update delta holds; 0: none
	u              Update
}

// run drives one client round through its phases on worker w.
func (w *trainWorkerOf[F]) run(in roundInput) Update {
	r := &w.round
	*r = clientRound[F]{roundInput: in, w: w}
	r.download()
	for !r.u.EarlyStop && r.iter < r.budget {
		r.iterate()
		if r.iter == r.dropAt {
			break // the device vanished mid-round, after this iteration
		}
		r.decide()
	}
	if r.iter == r.dropAt {
		r.drop()
	} else {
		r.finish()
		r.upload()
	}
	// The snapshots alias w.snap; the records outlive the round.
	for i := range r.eager {
		r.eager[i].Snapshot = nil
	}
	u := &r.u
	u.Iterations, u.TrainEnd, u.TrainTime = r.iter, r.now, r.now-u.DownloadDone
	u.Eager, u.EagerSent = r.eager, len(r.eager)
	u.UploadBytes, u.LinkRetries = r.c.Up.BytesSent()-r.upBytes, r.c.Up.Retries()-r.upRetries
	return *u
}

// download opens the round: the links reset to its start (cancelling a
// previous round's abandoned transfers and fault windows), the budget and
// fault plan fixed, the global model fetched and adopted, the optimizer and
// the worker's per-round buffers reset.
func (r *clientRound[F]) download() {
	c, cfg, w := r.c, r.cfg, r.w
	if len(r.global) != w.net.NumParams() {
		panic(fmt.Sprintf("fl: global vector size %d != model params %d", len(r.global), w.net.NumParams()))
	}
	c.Down.ResetAt(r.start)
	c.Up.ResetAt(r.start)
	r.upBytes, r.upRetries = c.Up.BytesSent(), c.Up.Retries()
	r.budget = cfg.LocalIters
	if b, ok := r.plan.IterBudget[c.ID]; ok && b > 0 {
		r.budget = min(b, cfg.LocalIters)
	}
	// The fault plan is a pure function of (seed, client, round), so
	// schedules are identical at any worker count. Its link fault windows go
	// in before any transfer. A dropped client (Sec. 3.1: the extreme of
	// resource shrinkage) burns the compute up to its dropout iteration.
	r.cplan = cfg.Chaos.Plan(c.ID, r.round, r.budget, cfg.BaseIterTime)
	r.dropAt = r.cplan.DropIter()
	if r.cplan != nil {
		for _, f := range r.cplan.Down {
			c.Down.Impair(r.start+f.From, r.start+f.To, f.Scale)
		}
		for _, f := range r.cplan.Up {
			c.Up.Impair(r.start+f.From, r.start+f.To, f.Scale)
		}
	}
	_, r.now = c.Down.TransferAttempts(r.start, cfg.ModelBytes, r.cplan.Attempts())
	w.net.SetFlatParams(r.global)
	w.opt.LR, w.opt.Momentum, w.opt.WeightDecay = cfg.LR, cfg.Momentum, cfg.WeightDecay
	w.opt.Reset()
	r.delta = w.pool.get(len(r.global)) // stale contents: accumulated overwrites all
	clear(w.standing)
	if b := c.Loader.BatchSize(); cap(w.y) < b {
		w.y = make([]int, b)
	}
	r.u = Update{ClientID: c.ID, Weight: c.Weight, DownloadDone: r.now, Anchor: r.plan.Anchor, Chaos: r.cplan}
}

// iterate runs one local SGD iteration and advances the virtual clock by its
// compute time. One iteration, one arena generation: every activation, mask
// and per-sample gradient buffer recycles at the Reset. Parameters, the
// optimizer state and the delta live outside the arena.
func (r *clientRound[F]) iterate() {
	w := r.w
	w.arena.Reset()
	batch := r.c.Loader.BatchSize()
	x, y := w.alloc(batch, r.c.Loader.Dim()), w.y[:batch]
	data.NextInto(r.c.Loader, x.Data(), y)
	w.net.ZeroGrad()
	logits := w.net.Forward(x, true)
	dlogits := w.alloc(logits.Dim(0), logits.Dim(1))
	r.lossSum += nn.SoftmaxCrossEntropyInto(logits, y, dlogits)
	w.net.Backward(dlogits)
	if r.plan.Prox != 0 {
		proxStep(r.plan.Prox, w.net.Params(), r.global)
	}
	w.opt.Step(w.net.Params())

	r.iter++
	dt := r.c.Speed.IterDurationWith(r.cfg.BaseIterTime, r.now, r.cplan.ComputeFactor(r.iter))
	r.now += dt
	if w.obs != nil {
		w.obs.ObserveIteration(dt)
	}
}

// decide hands the controller the iteration's state and applies its action:
// a learning-rate scale, eager layer sends, a stop.
func (r *clientRound[F]) decide() {
	action := r.ctrl.AfterIteration(IterState{
		Iter: r.iter, K: r.cfg.LocalIters, Budget: r.budget,
		Elapsed: r.now - r.u.DownloadDone, Ranges: r.w.ranges, src: r,
	})
	if action.LRScale > 0 {
		r.w.opt.LR *= action.LRScale
	}
	for _, li := range action.EagerLayers {
		r.sendEager(li)
	}
	r.u.EarlyStop = action.Stop
}

// sendEager transmits layer li's update as it stands, as the server would
// decode it, unless the layer went already: a layer is sent eagerly at most
// once per round.
func (r *clientRound[F]) sendEager(li int) {
	w := r.w
	if li < 0 || li >= len(w.ranges) {
		panic(fmt.Sprintf("fl: eager layer index %d out of range", li))
	}
	if w.standing[li] {
		return
	}
	w.standing[li] = true
	rg := w.ranges[li]
	snap := w.snap[rg.Start:rg.End]
	wireBytes := r.compressInto(r.accumulated()[rg.Start:rg.End], snap)
	sentAt, doneAt := r.c.Up.TransferAttempts(r.now, wireBytes, r.cplan.Attempts())
	r.eager = append(r.eager, EagerRecord{Layer: li, Iter: r.iter, Snapshot: snap, SentAt: sentAt, DoneAt: doneAt})
}

// drop closes a round whose device vanished: no upload, so the server never
// sees a partial layer (Delta stays nil) and the update vector goes back to
// the pool; the next ResetAt releases an abandoned eager transfer. The
// controller's Finalize observes the dropout, with no delta, to reset state
// it armed this round (e.g. FedCA's anchor recording); its action is
// ignored.
func (r *clientRound[F]) drop() {
	r.ctrl.Finalize(FinalState{Dropped: true, Iterations: r.iter, Ranges: r.w.ranges, Eager: r.eager})
	r.w.pool.put(r.delta)
	r.u.Dropped, r.u.CompletionTime = true, math.Inf(1)
}

// finish hands the controller the final state and marks the eager layers it
// asks for again, which upload then sends with the final payload.
func (r *clientRound[F]) finish() {
	final := r.ctrl.Finalize(FinalState{Iterations: r.iter, Delta: r.accumulated(), Ranges: r.w.ranges, Eager: r.eager})
	for _, ei := range final.Retransmit {
		if ei < 0 || ei >= len(r.eager) {
			panic(fmt.Sprintf("fl: retransmit index %d out of range", ei))
		}
		if !r.eager[ei].Retransmitted {
			r.eager[ei].Retransmitted = true
			r.w.standing[r.eager[ei].Layer] = false
			r.u.Retransmitted++
		}
	}
}

// upload sends the final payload and fills the update the server will see,
// in the update vector itself: a layer whose eager snapshot stands (sent
// eagerly and not retransmitted) is overwritten by its snapshot and is not
// sent again; every other layer is compressed in place to its final value as
// the server decodes it, and counts toward the payload.
func (r *clientRound[F]) upload() {
	delta := r.accumulated()
	var finalBytes float64
	for li, rg := range r.w.ranges {
		if r.w.standing[li] {
			copy(delta[rg.Start:rg.End], r.w.snap[rg.Start:rg.End])
		} else {
			finalBytes += r.compressInto(delta[rg.Start:rg.End], delta[rg.Start:rg.End])
		}
	}
	finalBytes = max(finalBytes, 64) // control message floor
	// Corruption strikes the payload as serialized for upload — after eager
	// overlays and compression, so the server decodes exactly the damage.
	r.cplan.CorruptDelta(delta)
	_, r.u.CompletionTime = r.c.Up.TransferAttempts(r.now, finalBytes, r.cplan.Attempts())
	r.u.Delta, r.u.TrainLoss = delta, r.lossSum/float64(r.iter)
}

// compressInto writes what the server would decode for one layer's update
// into dst and returns its wire size (compressors quote bytes against a
// 4-byte fp32 baseline; rescale to honour ModelBytes emulation). dst may
// alias vec, as compress.IntoCompressor allows: upload compresses in place.
func (r *clientRound[F]) compressInto(vec, dst []float64) float64 {
	bytesPerScalar := r.cfg.ModelBytes / float64(len(r.global))
	if r.cfg.Compressor == nil {
		copy(dst, vec)
		return float64(len(vec)) * bytesPerScalar
	}
	return r.cfg.Compressor.CompressInto(vec, dst) * bytesPerScalar / 4
}

// accumulated returns the update accumulated so far, filling the round's
// update vector on the first read after an iteration: the working weights,
// widened, minus the float64 master vector, whoever asks first (for F =
// float64 the widening is the identity).
func (r *clientRound[F]) accumulated() []float64 {
	delta, global := r.delta, r.global
	if r.deltaIter != r.iter {
		off := 0
		for _, p := range r.w.net.Params() {
			d := p.Value.Data()
			for j := range d {
				delta[off+j] = float64(d[j]) - global[off+j]
			}
			off += len(d)
		}
		r.deltaIter = r.iter
	}
	return delta
}
