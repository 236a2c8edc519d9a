package fl

import (
	"fmt"
	"math"
	"sync"

	"fedca/internal/chaos"
	"fedca/internal/compress"
	"fedca/internal/data"
	"fedca/internal/nn"
	"fedca/internal/telemetry"
	"fedca/internal/tensor"
)

// deltaPool recycles the NumParams-sized vectors handed to the server as
// Update.Delta. The runner returns them once the round is done with them (see
// Runner.recycle), so steady-state rounds allocate no fresh update vectors.
// Recycled slices carry stale data; every taker must overwrite all elements
// before reading any. It is a plain free list: a sync.Pool of slices would
// box a slice header on every put, and the vectors it holds between rounds
// are the ones the next round takes again.
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
// eager-transmission records and snapshots, and the runner's pool the
// server-bound update vectors come from. The arena resets once per training
// iteration, so after a warmup iteration has sized its slabs, steady-state
// iterations allocate nothing, and after a warmup round neither does the
// client round around them. One goroutine at a time owns a worker, so none
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

	// One client round's eager transmissions. A layer is sent at most once
	// per round, so one NumParams-long vector holds every snapshot of the
	// round, each at its own layer's offset. standing is per layer: sent
	// this round, and — once Finalize has answered — not retransmitted.
	// retrans is per eager record.
	snap     []float64
	eager    []EagerRecord
	standing []bool
	retrans  []bool
}

// newTrainWorkerOf wraps net in a worker drawing update vectors from pool
// and binds a fresh arena to it.
func newTrainWorkerOf[F tensor.Float](net *nn.NetworkOf[F], pool *deltaPool) *trainWorkerOf[F] {
	ranges := net.ParamRanges()
	w := &trainWorkerOf[F]{
		net: net, arena: tensor.NewArena(), ranges: ranges,
		opt: nn.NewSGDOf[F](0, 0, 0), pool: pool,
		snap:     make([]float64, net.NumParams()),
		standing: make([]bool, len(ranges)),
		retrans:  make([]bool, len(ranges)),
	}
	net.SetArena(w.arena)
	return w
}

// trainWorker is the dtype-erased handle the runner schedules client rounds
// onto: a float64 and a float32 worker run the identical round protocol, so
// the runner never branches on precision.
type trainWorker interface {
	run(c *Client, globalFlat []float64, cfg *Config, plan RoundPlan, ctrl Controller, round int, roundStart float64, anchor bool) Update
	numParams() int
	// lendArena binds net to the worker's arena, for a network that runs
	// only while the worker is idle.
	lendArena(net *nn.Network)
}

func (w *trainWorkerOf[F]) run(c *Client, globalFlat []float64, cfg *Config, plan RoundPlan, ctrl Controller, round int, roundStart float64, anchor bool) Update {
	return runClientRound(c, w, globalFlat, cfg, plan, ctrl, round, roundStart, anchor)
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
// plan when cfg.Chaos is set. It runs on a worker goroutine of the runner's
// train stage and invokes every Controller hook inline (see the package
// comment).
//
// Everything the server, the scheme hooks and the wire see — the accumulated
// delta, eager snapshots, the uploaded update — is float64 regardless of F: a
// float32 worker narrows the global model once at SetFlatParams and widens its
// weights when the delta is recomputed each iteration, so only
// Forward/Backward/SGD run in reduced precision. For F = float64 every
// arithmetic step below is bit-identical to the historical float64-only
// implementation.
func runClientRound[F tensor.Float](c *Client, w *trainWorkerOf[F], globalFlat []float64, cfg *Config, plan RoundPlan, ctrl Controller, round int, roundStart float64, anchor bool) Update {
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
		// Journal emission runs worker-side; the journal is mutex-sharded, so
		// concurrent clients interleave safely (event order across clients is
		// not part of the determinism contract — run logs exclude the journal).
		for _, w := range cplan.Down {
			c.Down.Impair(roundStart+w.From, roundStart+w.To, w.Scale)
			cfg.Journal.Impairment(round, c.ID, "down", roundStart+w.From, roundStart+w.To, w.Scale)
		}
		for _, w := range cplan.Up {
			c.Up.Impair(roundStart+w.From, roundStart+w.To, w.Scale)
			cfg.Journal.Impairment(round, c.ID, "up", roundStart+w.From, roundStart+w.To, w.Scale)
		}
	}

	_, tDown := c.Down.TransferAttempts(roundStart, cfg.ModelBytes, cplan.Attempts())
	net.SetFlatParams(globalFlat)
	// Stochastic layers (dropout) must not depend on which worker network
	// this client landed on; reseed them from client identity and round time.
	net.ReseedNoise(uint64(c.ID)<<32 ^ uint64(int64(roundStart*1e6)))
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
	// not alias vec. Compressors providing CompressInto skip the intermediate
	// approximation vector entirely.
	compressInto := func(vec, dst []float64) float64 {
		if cfg.Compressor == nil {
			copy(dst, vec)
			return float64(len(vec)) * bytesPerScalar
		}
		if ic, ok := cfg.Compressor.(compress.IntoCompressor); ok {
			return ic.CompressInto(vec, dst) * bytesPerScalar / 4
		}
		approx, b4 := cfg.Compressor.Compress(vec)
		copy(dst, approx)
		return b4 * bytesPerScalar / 4
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
	eager := w.eager[:0]
	standing := w.standing
	clear(standing)

	trainStart := tDown
	now := tDown
	iters := 0
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
		cfg.Telemetry.ObserveIteration(dt)
		iters = iter

		if iter == dropAt {
			// The device vanished: no upload, and Finalize is never called.
			// Schemes that armed per-client state this round observe the
			// dropout so they can reset it (e.g. FedCA's anchor recording).
			// Any eager transmission already on the uplink is abandoned; the
			// next round's ResetAt releases the link, and the server never
			// sees a partial layer (Delta stays nil).
			if d, ok := ctrl.(DropoutObserver); ok {
				d.OnDropout(iters)
			}
			if t := cfg.Telemetry; t != nil {
				emitClientSpans(t, c, anchor, roundStart, tDown, trainStart, now, math.NaN(), iters, eager, cplan, true)
			}
			return Update{
				ClientID:       c.ID,
				Weight:         c.Weight,
				Iterations:     iters,
				TrainTime:      now - trainStart,
				CompletionTime: math.Inf(1),
				Dropped:        true,
				UploadBytes:    c.Up.BytesSent() - upBytesBefore,
				LinkRetries:    c.Up.Retries() - upRetriesBefore,
				EagerSent:      len(eager),
			}
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
			break
		}
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
	w.eager = eager // keep what append grew for the next round
	retrans := w.retrans[:len(eager)]
	clear(retrans)
	nRetrans := 0
	for _, ei := range final.Retransmit {
		if ei < 0 || ei >= len(eager) {
			panic(fmt.Sprintf("fl: retransmit index %d out of range", ei))
		}
		if !retrans[ei] {
			retrans[ei] = true
			standing[eager[ei].Layer] = false
			nRetrans++
		}
	}

	// The update the server will see: final values everywhere (compressed if
	// a compressor is configured), except layers whose eager snapshot stands
	// (sent eagerly and not retransmitted).
	serverDelta := w.pool.get(len(delta))
	copy(serverDelta, delta)
	for _, rec := range eager {
		if standing[rec.Layer] {
			rg := ranges[rec.Layer]
			copy(serverDelta[rg.Start:rg.End], rec.Snapshot)
		}
	}

	// Final payload: every layer except those whose eager snapshot stands.
	// serverDelta already holds the uncompressed delta, so the no-compressor
	// path only accounts bytes; a compressor overwrites the layer in place.
	var finalBytes float64
	for li, rg := range ranges {
		if !standing[li] {
			if cfg.Compressor == nil {
				finalBytes += float64(rg.Size()) * bytesPerScalar
			} else {
				finalBytes += compressInto(delta[rg.Start:rg.End], serverDelta[rg.Start:rg.End])
			}
		}
	}
	if finalBytes < 64 {
		finalBytes = 64 // control message floor
	}
	// Corruption strikes the payload as serialized for upload — after eager
	// overlays and compression, so the server decodes exactly the damage.
	cplan.CorruptDelta(serverDelta)
	_, completion := c.Up.TransferAttempts(now, finalBytes, cplan.Attempts())
	if t := cfg.Telemetry; t != nil {
		emitClientSpans(t, c, anchor, roundStart, tDown, trainStart, now, completion, iters, eager, cplan, false)
	}

	var eagerIters []int
	for ei, rec := range eager {
		if !retrans[ei] {
			eagerIters = append(eagerIters, rec.Iter)
		}
	}
	return Update{
		ClientID:       c.ID,
		Delta:          serverDelta,
		Weight:         c.Weight,
		Iterations:     iters,
		TrainTime:      now - trainStart,
		TrainLoss:      lossSum / float64(iters),
		CompletionTime: completion,
		UploadBytes:    c.Up.BytesSent() - upBytesBefore,
		LinkRetries:    c.Up.Retries() - upRetriesBefore,
		EagerSent:      len(eager),
		Retransmitted:  nRetrans,
		EagerIters:     eagerIters,
	}
}

// emitClientSpans renders one finished client round onto its trace track,
// named after the client — so exactly the clients that ran get a named track,
// whatever the fleet: download, local training (labelled as anchor profiling
// when the scheme says so), eager uploads, the final upload, and the round's
// chaos events — dropout, compute slowdowns, corruption and link impairment
// windows — annotated onto the spans they belong to. Telemetry-only: every
// time it touches was already computed by the simulation.
func emitClientSpans(t *telemetry.Sink, c *Client, anchor bool, roundStart, tDown, trainStart, trainEnd, completion float64, iters int, eager []EagerRecord, cplan *chaos.Plan, dropped bool) {
	tid := telemetry.ClientTrack(c.ID)
	tr := t.Tracer()
	tr.NameTrack(tid, fmt.Sprintf("client %d", c.ID))
	t.ClientIters.Observe(float64(iters))

	tr.Span(tid, "download", "transfer", roundStart, tDown, nil)

	trainName := "local-training"
	if anchor {
		trainName = "anchor-profiling"
	}
	args := map[string]any{"iterations": iters}
	if cplan != nil {
		if w := cplan.Slow; w.Factor > 1 {
			args["slow_iters"] = fmt.Sprintf("%d-%d", w.From, w.To)
			args["slow_factor"] = w.Factor
		}
		if k := cplan.Corrupt; k != chaos.CorruptNone {
			args["corrupt"] = k.String()
		}
	}
	if dropped {
		args["dropped"] = true
		// The dropout counter is bumped by RoundDone (server-side tally);
		// here the event is only placed on the timeline.
		tr.Instant(tid, "dropout", "chaos", trainEnd, nil)
		if anchor {
			tr.Instant(tid, "anchor-abort", "chaos", trainEnd, nil)
		}
	}
	tr.Span(tid, trainName, "train", trainStart, trainEnd, args)

	for _, rec := range eager {
		tr.Span(tid, fmt.Sprintf("eager-upload L%d", rec.Layer), "transfer", rec.SentAt, rec.DoneAt,
			map[string]any{"layer": rec.Layer, "iter": rec.Iter})
	}
	if !dropped && !math.IsNaN(completion) {
		tr.Span(tid, "upload", "transfer", trainEnd, completion, nil)
	}

	// Link impairment windows, clamped to the client's round activity so a
	// whole-round degradation does not stretch the trace to +Inf.
	if cplan != nil {
		clamp := trainEnd
		if !math.IsNaN(completion) && completion > clamp {
			clamp = completion
		}
		emitImpairments(tr, tid, "uplink", roundStart, clamp, cplan.Up)
		emitImpairments(tr, tid, "downlink", roundStart, clamp, cplan.Down)
	}
}

// emitImpairments renders a link's chaos windows as spans on the client
// track. Windows are in seconds relative to the round start.
func emitImpairments(tr *telemetry.Tracer, tid int, link string, roundStart, clamp float64, windows []chaos.LinkWindow) {
	for _, w := range windows {
		from := roundStart + w.From
		to := roundStart + w.To
		if to > clamp {
			to = clamp
		}
		if to <= from {
			continue
		}
		name := link + "-degraded"
		if w.Scale == 0 {
			name = link + "-outage"
		}
		tr.Span(tid, name, "chaos", from, to, map[string]any{"scale": w.Scale})
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
