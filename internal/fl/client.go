package fl

import (
	"fmt"
	"math"
	"sync"

	"fedca/internal/data"
	"fedca/internal/nn"
	"fedca/internal/tensor"
)

// deltaPool recycles the NumParams-sized vectors handed to the server as
// Update.Delta. The runner returns them once the round is done with them (see
// Runner.recycle), so steady-state rounds allocate no fresh update vectors.
// Recycled slices carry stale data; every taker must overwrite all elements
// before reading any. It is a plain free list: a sync.Pool of slices would
// box a slice header on every put, and the vectors it holds between rounds
// are the ones the next round takes again: as many as a round held at once,
// fewer than twice the train stage's worker count on the online fold's path
// (see onlineFold).
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

// trainWorkerOf is one training slot: a dtype-concrete network plus the
// persistent per-worker state the training loop reuses across clients and
// rounds — the scratch arena every layer bump-allocates from, the network's
// layer layout, the optimizer, the label buffer, the in-progress delta, the
// eager-transmission snapshots, the runner's pool the server-bound update
// vectors come from, and the runner's worker observer. The arena resets once
// per training iteration, so after a warmup iteration has sized its slabs,
// steady-state iterations allocate nothing, and after a warmup round neither
// does the client round around them. One goroutine at a time owns a worker, so none
// of this is shared; the update vectors flow back to the pool through the
// runner.
type trainWorkerOf[F tensor.Float] struct {
	net    *nn.NetworkOf[F]
	arena  *tensor.Arena
	ranges []nn.ParamRange
	opt    *nn.SGDOf[F]
	y      []int
	delta  []float64
	pool   *deltaPool
	obs    workerObserver // nil when no observer watches the workers

	// One client round's eager snapshots. A layer is sent at most once per
	// round, so one NumParams-long vector holds every snapshot of the round,
	// each at its own layer's offset. standing is per layer: sent this
	// round, and — once Finalize has answered — not retransmitted.
	snap     []float64
	standing []bool
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
	run(c *Client, globalFlat []float64, cfg *Config, plan RoundPlan, ctrl Controller, round int, roundStart float64, anchor bool, eager []EagerRecord) Update
	numParams() int
	// lendArena binds net to the worker's arena, for a network that runs
	// only while the worker is idle.
	lendArena(net *nn.Network)
}

func (w *trainWorkerOf[F]) run(c *Client, globalFlat []float64, cfg *Config, plan RoundPlan, ctrl Controller, round int, roundStart float64, anchor bool, eager []EagerRecord) Update {
	return runClientRound(c, w, globalFlat, cfg, plan, ctrl, round, roundStart, anchor, eager)
}

func (w *trainWorkerOf[F]) numParams() int { return w.net.NumParams() }

func (w *trainWorkerOf[F]) lendArena(net *nn.Network) { net.SetArena(w.arena) }

// alloc draws a tensor from the worker's arena for a producer that writes
// every element — the loader filling a batch, the loss writing dlogits — so
// its contents are arbitrary, not zero.
func (w *trainWorkerOf[F]) alloc(shape ...int) *tensor.TensorOf[F] {
	return tensor.AllocUninitOf[F](w.arena, shape...)
}

// modifyGrad dispatches the controller's gradient hook by worker dtype: a
// float64 worker calls ModifyGrad, a float32 worker calls ModifyGrad32 and
// refuses controllers that lack it (see GradModifier32).
func modifyGrad[F tensor.Float](ctrl Controller, params []*nn.ParamOf[F], globalFlat []float64) {
	switch ps := any(params).(type) {
	case []*nn.Param:
		ctrl.ModifyGrad(ps, globalFlat)
	case []*nn.ParamOf[float32]:
		m, ok := ctrl.(GradModifier32)
		if !ok {
			panic(fmt.Sprintf("fl: controller %T has no ModifyGrad32; a float32 worker would silently drop its gradient modification", ctrl))
		}
		m.ModifyGrad32(ps, globalFlat)
	}
}

// runClientRound simulates one client's round on worker w: model download,
// local SGD with scheme hooks, eager per-layer transmissions, and the
// end-of-round upload. Training math runs for real; time is accounted in
// virtual seconds. round is the 0-based round index, which keys the fault
// plan when cfg.Chaos is set. The eager transmissions are appended to eager,
// the client's cohort-slot buffer. It runs on a worker goroutine of the
// runner's train stage and invokes every Controller hook inline (see the
// package comment); the Update it returns is the client-round's record.
//
// Everything the server, the scheme hooks and the wire see — the accumulated
// delta, eager snapshots, the uploaded update — is float64 regardless of F: a
// float32 worker narrows the global model once at SetFlatParams and widens its
// weights when the delta is recomputed each iteration, so only
// Forward/Backward/SGD run in reduced precision. For F = float64 every
// arithmetic step below is bit-identical to the historical float64-only
// implementation.
func runClientRound[F tensor.Float](c *Client, w *trainWorkerOf[F], globalFlat []float64, cfg *Config, plan RoundPlan, ctrl Controller, round int, roundStart float64, anchor bool, eager []EagerRecord) Update {
	net := w.net
	ranges := w.ranges
	if len(globalFlat) != net.NumParams() {
		panic(fmt.Sprintf("fl: global vector size %d != model params %d", len(globalFlat), net.NumParams()))
	}
	// Fresh round: abandoned transfers and fault windows from a previous
	// round are cancelled.
	c.Down.ResetAt(roundStart)
	c.Up.ResetAt(roundStart)
	upBytesBefore := c.Up.BytesSent()
	upRetriesBefore := c.Up.Retries()

	budget := cfg.LocalIters
	if plan.IterBudget != nil {
		if b, ok := plan.IterBudget[c.ID]; ok && b > 0 {
			budget = b
		}
	}
	if budget > cfg.LocalIters {
		budget = cfg.LocalIters
	}

	// Fault injection: the plan is a pure function of (seed, client, round),
	// so schedules are identical at any worker count. Link fault windows are
	// installed right after the round-start reset, before any transfer.
	cplan := cfg.Chaos.Plan(c.ID, round, budget, cfg.BaseIterTime)
	if cplan != nil {
		for _, w := range cplan.Down {
			c.Down.Impair(roundStart+w.From, roundStart+w.To, w.Scale)
		}
		for _, w := range cplan.Up {
			c.Up.Impair(roundStart+w.From, roundStart+w.To, w.Scale)
		}
	}

	_, tDown := c.Down.TransferAttempts(roundStart, cfg.ModelBytes, cplan.Attempts())
	net.SetFlatParams(globalFlat)
	opt := w.opt
	opt.LR, opt.Momentum, opt.WeightDecay = cfg.LR, cfg.Momentum, cfg.WeightDecay
	opt.Reset()

	// Drop-out: the client may vanish partway through the round (Sec. 3.1
	// treats drop-out as the extreme of resource shrinkage). The dropped
	// client still burns the compute up to the dropout iteration, but its
	// update never reaches the server. The chaos plan picks the iteration.
	dropAt := cplan.DropIter() // 0 = no dropout

	bytesPerScalar := cfg.ModelBytes / float64(len(globalFlat))
	// compressInto writes what the server would decode for one layer's update
	// into dst and returns its wire size (compressors quote bytes against a
	// 4-byte fp32 baseline; rescale to honour ModelBytes emulation). dst must
	// not alias vec.
	compressInto := func(vec, dst []float64) float64 {
		if cfg.Compressor == nil {
			copy(dst, vec)
			return float64(len(vec)) * bytesPerScalar
		}
		return cfg.Compressor.CompressInto(vec, dst) * bytesPerScalar / 4
	}
	// The worker's reusable delta buffer. Its contents are stale: the round
	// overwrites every element after the first completed iteration, before
	// any hook reads it.
	if len(w.delta) != len(globalFlat) {
		w.delta = make([]float64, len(globalFlat))
	}
	delta := w.delta
	// NopController — plain FedAvg — ignores what AfterIteration is handed,
	// so its round computes the accumulated update once, after the last
	// iteration, instead of after each. The test is on the exact type: a
	// controller that embeds NopController may override AfterIteration and
	// keeps the per-iteration delta. (A dropped client uploads nothing and
	// needs none.)
	_, plainFedAvg := ctrl.(NopController)
	standing := w.standing
	clear(standing)

	trainStart := tDown
	now := tDown
	iters := 0
	stopped := false
	lossSum := 0.0
	params := net.Params()
	batch, dim := c.Loader.BatchSize(), c.Loader.Dim()
	if cap(w.y) < batch {
		w.y = make([]int, batch)
	}
	y := w.y[:batch]
	for iter := 1; iter <= budget; iter++ {
		// One iteration, one arena generation: every activation, mask and
		// per-sample gradient buffer below recycles here. Parameters, the
		// optimizer state and the delta live outside the arena.
		w.arena.Reset()
		x := w.alloc(batch, dim)
		data.NextInto(c.Loader, x.Data(), y)
		net.ZeroGrad()
		logits := net.Forward(x, true)
		dlogits := w.alloc(logits.Dim(0), logits.Dim(1))
		loss := nn.SoftmaxCrossEntropyInto(logits, y, dlogits)
		lossSum += loss
		net.Backward(dlogits)
		modifyGrad(ctrl, params, globalFlat)
		opt.Step(params)

		dt := c.Speed.IterDurationWith(cfg.BaseIterTime, now, cplan.ComputeFactor(iter))
		now += dt
		if w.obs != nil {
			w.obs.ObserveIteration(dt)
		}
		iters = iter

		if iter == dropAt {
			break // the device vanished mid-round, after this iteration
		}

		if !plainFedAvg {
			accumulatedDelta(delta, params, globalFlat)
		}

		action := ctrl.AfterIteration(IterState{
			Iter:    iter,
			K:       cfg.LocalIters,
			Budget:  budget,
			Elapsed: now - trainStart,
			Delta:   delta,
			Ranges:  ranges,
		})
		if action.LRScale > 0 {
			opt.LR *= action.LRScale
		}
		for _, li := range action.EagerLayers {
			if li < 0 || li >= len(ranges) {
				panic(fmt.Sprintf("fl: eager layer index %d out of range", li))
			}
			if standing[li] {
				continue // a layer is eagerly transmitted at most once
			}
			standing[li] = true
			rg := ranges[li]
			snap := w.snap[rg.Start:rg.End]
			wireBytes := compressInto(delta[rg.Start:rg.End], snap)
			sentAt, doneAt := c.Up.TransferAttempts(now, wireBytes, cplan.Attempts())
			eager = append(eager, EagerRecord{Layer: li, Iter: iter, Snapshot: snap, SentAt: sentAt, DoneAt: doneAt})
		}
		if action.Stop {
			stopped = true
			break
		}
	}

	u := Update{
		ClientID: c.ID, Weight: c.Weight, Iterations: iters,
		DownloadDone: tDown, TrainEnd: now, TrainTime: now - trainStart,
		Anchor: anchor, EarlyStop: stopped, Eager: eager, Chaos: cplan,
	}
	if iters == dropAt {
		// The device vanished: no upload, and Finalize is never called.
		// Schemes that armed per-client state this round observe the
		// dropout so they can reset it (e.g. FedCA's anchor recording).
		// Any eager transmission already on the uplink is abandoned; the
		// next round's ResetAt releases the link, and the server never
		// sees a partial layer (Delta stays nil).
		if d, ok := ctrl.(DropoutObserver); ok {
			d.OnDropout(iters)
		}
		dropSnapshots(eager)
		u.Dropped, u.CompletionTime = true, math.Inf(1)
		u.UploadBytes, u.LinkRetries = c.Up.BytesSent()-upBytesBefore, c.Up.Retries()-upRetriesBefore
		u.EagerSent = len(eager)
		return u
	}

	if plainFedAvg {
		accumulatedDelta(delta, params, globalFlat)
	}
	final := ctrl.Finalize(FinalState{
		Iterations: iters,
		Delta:      delta,
		Ranges:     ranges,
		Eager:      eager,
	})
	dropSnapshots(eager)
	nRetrans := 0
	for _, ei := range final.Retransmit {
		if ei < 0 || ei >= len(eager) {
			panic(fmt.Sprintf("fl: retransmit index %d out of range", ei))
		}
		if !eager[ei].Retransmitted {
			eager[ei].Retransmitted = true
			standing[eager[ei].Layer] = false
			nRetrans++
		}
	}

	// The update the server will see, and the final payload: a layer whose
	// eager snapshot stands (sent eagerly and not retransmitted) is its
	// snapshot and is not sent again; every other layer is its final value,
	// compressed if a compressor is configured, and counts toward the
	// payload.
	serverDelta := w.pool.get(len(delta))
	var finalBytes float64
	for li, rg := range ranges {
		switch {
		case standing[li]:
			copy(serverDelta[rg.Start:rg.End], w.snap[rg.Start:rg.End])
		case cfg.Compressor == nil:
			copy(serverDelta[rg.Start:rg.End], delta[rg.Start:rg.End])
			finalBytes += float64(rg.Size()) * bytesPerScalar
		default:
			finalBytes += compressInto(delta[rg.Start:rg.End], serverDelta[rg.Start:rg.End])
		}
	}
	if finalBytes < 64 {
		finalBytes = 64 // control message floor
	}
	// Corruption strikes the payload as serialized for upload — after eager
	// overlays and compression, so the server decodes exactly the damage.
	cplan.CorruptDelta(serverDelta)
	_, u.CompletionTime = c.Up.TransferAttempts(now, finalBytes, cplan.Attempts())
	u.Delta, u.TrainLoss = serverDelta, lossSum/float64(iters)
	u.UploadBytes, u.LinkRetries = c.Up.BytesSent()-upBytesBefore, c.Up.Retries()-upRetriesBefore
	u.EagerSent, u.Retransmitted = len(eager), nRetrans
	return u
}

// dropSnapshots clears the eager records' snapshots once no hook reads them:
// they alias the worker's snapshot vector, which its next client round
// overwrites, and the records outlive the round.
func dropSnapshots(eager []EagerRecord) {
	for i := range eager {
		eager[i].Snapshot = nil
	}
}

// accumulatedDelta writes the update accumulated so far into delta: the
// working weights, widened, minus the float64 master vector, so the delta
// every hook and the server observe is float64 at either working precision
// (for F = float64 the widening is the identity).
func accumulatedDelta[F tensor.Float](delta []float64, params []*nn.ParamOf[F], globalFlat []float64) {
	off := 0
	for _, p := range params {
		d := p.Value.Data()
		for j := range d {
			delta[off+j] = float64(d[j]) - globalFlat[off+j]
		}
		off += len(d)
	}
}
