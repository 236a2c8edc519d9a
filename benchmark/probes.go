package main

// Per-layer probes: benchmark-side timing of calls into the public functions
// of single modules. They may import fedca/internal/..., but use no symbol
// ROADMAP schedules for deletion or merging (see README.md for the list they
// do depend on), because later non-benchmark changes may not edit this
// directory.

import (
	"runtime"
	"time"

	"fedca"
	"fedca/internal/chaos"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/data"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/simnet"
	"fedca/internal/tensor"
	"fedca/internal/trace"
)

// prober times calls: after a warm-up it repeats until it has seen minCalls
// calls or spent budget, whichever comes first, and reports medians. Every
// probe is one span of the traced run.
type prober struct {
	minCalls int
	budget   time.Duration
	spans    *spanList
	parent   int
}

// stages times each stage of a composite call separately. run performs one
// call and invokes lap at every stage boundary: the first lap starts the
// clock, each later one closes a stage. It returns the median seconds of
// each stage.
func (p *prober) stages(name string, run func(lap func())) []float64 {
	id := p.spans.begin("probe:"+name, p.parent)
	defer p.spans.end(id)
	var marks []time.Time
	lap := func() { marks = append(marks, time.Now()) }
	run(lap) // warm-up: caches, arenas, lazy set-up
	var samples [][]float64
	start := time.Now()
	for calls := 0; calls == 0 || (calls < p.minCalls && time.Since(start) < p.budget); calls++ {
		marks = marks[:0]
		run(lap)
		if samples == nil {
			samples = make([][]float64, len(marks)-1)
		}
		for i := range samples {
			samples[i] = append(samples[i], marks[i+1].Sub(marks[i]).Seconds())
		}
	}
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = median(s)
	}
	return out
}

// call times a single-stage call. Calls shorter than the clock can resolve
// are timed in batches, sized by the warm-up call.
func (p *prober) call(name string, f func()) float64 {
	batch := 0 // unknown until the warm-up call has run
	sec := p.stages(name, func(lap func()) {
		n := batch
		if n == 0 {
			n = 1
		}
		lap()
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		one := time.Since(t)
		lap()
		if batch == 0 {
			batch = int(20*time.Microsecond/(one+1)) + 1
		}
	})[0]
	return sec / float64(batch)
}

// programInputs maps facade options to the internal workload and speed-trace
// configs the same way fedca.New does, so probes run the facade-equivalent
// model, data and batch.
func programInputs(o fedca.Options) (expcfg.Workload, trace.Config, error) {
	wl, err := expcfg.ByName(o.Model)
	if err != nil {
		return wl, trace.Config{}, err
	}
	wl.FL.LocalIters, wl.FL.BatchSize = o.LocalIters, o.BatchSize
	wl.TrainN, wl.TestN, wl.Alpha = o.TrainSamples, o.TestSamples, o.Alpha
	tcfg := trace.PaperConfig()
	if !o.Heterogeneous {
		tcfg.HeterogeneitySigma = 0
	}
	tcfg.Dynamic = o.Dynamic
	return wl, tcfg, nil
}

// fill writes deterministic non-zero values (kernels may skip zeros).
func fill[F tensor.Float](v []F, r *rng.RNG) {
	for i := range v {
		v[i] = F(r.Uniform(-1, 1))
	}
}

func randTensor[F tensor.Float](r *rng.RNG, shape ...int) *tensor.TensorOf[F] {
	t := tensor.NewOf[F](shape...)
	fill(t.Data(), r)
	return t
}

// cnnGeoms are the two convolution geometries of the CNN workload
// (model.NewCNNOf at the 3x16x16 input of expcfg.CNN).
func cnnGeoms() (conv1, conv2 tensor.ConvGeom) {
	return tensor.NewConvGeom(3, 16, 16, 5, 5, 1, 2), tensor.NewConvGeom(6, 8, 8, 5, 5, 1, 2)
}

// probeTensor times the GEMM calls one CNN training sample plus its share of
// fc1 makes (conv1/conv2 forward NT and backward TN, fc1 forward NT, backward
// TN and NN at the given batch) and the fused im2col+pack of both conv
// layers.
func probeTensor[F tensor.Float](p *prober, dtype string, batch int) (gflops, im2colUS float64) {
	r := rng.New(1)
	g1, g2 := cnnGeoms()
	type gemm struct {
		f         func(dst, a, b *tensor.TensorOf[F])
		dst, a, b *tensor.TensorOf[F]
	}
	var ops []gemm
	var flops float64
	add := func(f func(dst, a, b *tensor.TensorOf[F]), m, k, n int, aShape, bShape [2]int) {
		ops = append(ops, gemm{f, tensor.NewOf[F](m, n), randTensor[F](r, aShape[0], aShape[1]), randTensor[F](r, bShape[0], bShape[1])})
		flops += 2 * float64(m) * float64(k) * float64(n)
	}
	for _, c := range []struct {
		g    tensor.ConvGeom
		outC int
	}{{g1, 6}, {g2, 16}} {
		pos, patch := c.g.ColRows(), c.g.ColCols()
		add(tensor.MatMulTransB[F], c.outC, patch, pos, [2]int{c.outC, patch}, [2]int{pos, patch})
		add(tensor.MatMulTransA[F], pos, c.outC, patch, [2]int{c.outC, pos}, [2]int{c.outC, patch})
	}
	const in, out = 256, 120 // fc1
	add(tensor.MatMulTransB[F], batch, in, out, [2]int{batch, in}, [2]int{out, in})
	add(tensor.MatMulTransA[F], out, batch, in, [2]int{batch, out}, [2]int{batch, in})
	add(tensor.MatMul[F], batch, out, in, [2]int{batch, out}, [2]int{out, in})
	sec := p.call("tensor.gemm_"+dtype, func() {
		for _, o := range ops {
			o.f(o.dst, o.a, o.b)
		}
	})

	img1, img2 := make([]F, g1.InC*g1.InH*g1.InW), make([]F, g2.InC*g2.InH*g2.InW)
	fill(img1, r)
	fill(img2, r)
	pb1 := tensor.NewPackedBOf[F](g1.ColRows(), g1.ColCols())
	pb2 := tensor.NewPackedBOf[F](g2.ColRows(), g2.ColCols())
	im := p.call("tensor.im2col_"+dtype, func() {
		tensor.Im2ColPackedOf(g1, img1, pb1)
		tensor.Im2ColPackedOf(g2, img2, pb2)
	})
	return flops / sec / 1e9, im * 1e6
}

// probeTraining times one arena-bound training iteration of the workload's
// model at its batch and dtype, stage by stage, the way fl's training slot
// runs it.
func probeTraining[F tensor.Float](p *prober, wl expcfg.Workload, loader *data.Loader, m map[string]float64) {
	net := expcfg.NewModelOf[F](wl, rng.New(1)).Network
	arena := tensor.NewArena()
	net.SetArena(arena)
	opt := nn.NewSGDOf[F](wl.FL.LR, wl.FL.Momentum, wl.FL.WeightDecay)
	params := net.Params()
	batch, dim := loader.BatchSize(), loader.Dim()
	y := make([]int, batch)
	iter := func(lap func()) {
		arena.Reset()
		x := tensor.AllocOf[F](arena, batch, dim)
		lap()
		data.NextInto(loader, x.Data(), y)
		lap()
		net.ZeroGrad()
		logits := net.Forward(x, true)
		lap()
		dlogits := tensor.AllocOf[F](arena, logits.Dim(0), logits.Dim(1))
		nn.SoftmaxCrossEntropyInto(logits, y, dlogits)
		lap()
		net.Backward(dlogits)
		lap()
		opt.Step(params)
		lap()
	}
	s := p.stages("nn.iteration", iter)
	m["data.next_batch_us"] = s[0] * 1e6
	m["nn.forward_us"] = s[1] * 1e6
	m["nn.loss_us"] = s[2] * 1e6
	m["nn.backward_us"] = s[3] * 1e6
	m["nn.sgd_step_us"] = s[4] * 1e6

	const allocIters = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocIters; i++ {
		iter(func() {})
	}
	runtime.ReadMemStats(&after)
	m["nn.iter_allocs"] = float64(after.Mallocs-before.Mallocs) / allocIters
}

// probeCore times FedCA's client-side decisions at the workload model's
// parameter layout: Eq. 1, anchor recording and curve building, and one
// controller client-round on an anchor and on a regular round.
func probeCore(p *prober, wl expcfg.Workload, m map[string]float64) {
	net := wl.NewModel(rng.New(1)).Network
	ranges, n, k := net.ParamRanges(), net.NumParams(), wl.FL.LocalIters
	r := rng.New(2)
	// A plausible accumulated-update trajectory: grows towards g, with noise.
	g := make([]float64, n)
	fill(g, r)
	deltas := make([][]float64, k)
	for t := range deltas {
		deltas[t] = make([]float64, n)
		for j := range g {
			deltas[t][j] = float64(t+1)/float64(k)*g[j] + 0.01*r.Normal(0, 1)
		}
	}

	prof := core.NewProfiler(0, 0, rng.New(3))
	prof.Prepare(ranges)
	samples := prof.TotalSamples()
	m["core.progress_us"] = p.call("core.Progress", func() { core.Progress(g[:samples], deltas[0][:samples]) }) * 1e6
	s := p.stages("core.Profiler", func(lap func()) {
		prof.BeginAnchor(0)
		lap()
		for _, d := range deltas {
			prof.Record(ranges, d)
		}
		lap()
		prof.FinishAnchor()
		lap()
	})
	m["core.profiler_record_us"] = s[0] / float64(k) * 1e6
	m["core.finish_anchor_us"] = s[1] * 1e6

	scheme := core.NewScheme(core.DefaultOptions(k), rng.New(4))
	client := &fl.Client{ID: 0}
	clientRound := func(round int) func(lap func()) {
		return func(lap func()) {
			plan := scheme.PlanRound(round, fl.NewHistory())
			ctrl := scheme.NewController(client, round, plan)
			var eager []fl.EagerRecord
			lap()
			for t, d := range deltas {
				act := ctrl.AfterIteration(fl.IterState{
					Iter: t + 1, K: k, Budget: k, Elapsed: float64(t+1) * wl.FL.BaseIterTime, Delta: d, Ranges: ranges,
				})
				for _, l := range act.EagerLayers {
					eager = append(eager, fl.EagerRecord{Layer: l, Iter: t + 1, Snapshot: d[ranges[l].Start:ranges[l].End]})
				}
			}
			lap()
			ctrl.Finalize(fl.FinalState{Iterations: k, Delta: deltas[k-1], Ranges: ranges, Eager: eager})
		}
	}
	m["core.controller_iter_anchor_us"] = p.stages("core.controller(anchor)", clientRound(0))[0] / float64(k) * 1e6
	m["core.controller_iter_us"] = p.stages("core.controller", clientRound(1))[0] / float64(k) * 1e6
}

// probeCompress runs both upload compressors over every layer of the WRN
// model, the layout the compressed workload uploads.
func probeCompress(p *prober, m map[string]float64) error {
	net := expcfg.WRN().NewModel(rng.New(1)).Network
	vec := make([]float64, net.NumParams())
	fill(vec, rng.New(2))
	dst := make([]float64, len(vec))
	for _, name := range []string{"qsgd7", "topk1"} {
		c, err := compress.ByName(name)
		if err != nil {
			return err
		}
		into := c.(compress.IntoCompressor)
		var wire float64
		sec := p.call("compress."+name, func() {
			wire = 0
			for _, rg := range net.ParamRanges() {
				wire += into.CompressInto(vec[rg.Start:rg.End], dst[rg.Start:rg.End])
			}
		})
		m["compress."+name+"_mb_per_s"] = float64(len(vec)) * 8 / 1e6 / sec
		m["compress."+name+"_wire_ratio"] = wire / (4 * float64(len(vec)))
	}
	return nil
}

// probeFleet times cohort materialisation and slot recycling of the virtual
// fleet at the fleet workload's size, and the lazy partition under it.
func probeFleet(p *prober, o fedca.Options, m map[string]float64) error {
	wl, tcfg, err := programInputs(o)
	if err != nil {
		return err
	}
	tb, err := expcfg.BuildFleet(wl, o.Fleet, 0, tcfg, o.Seed)
	if err != nil {
		return err
	}
	cohort := int(o.Participation*float64(o.Fleet) + 0.5)
	clients := make([]*fl.Client, cohort)
	next := 0
	s := p.stages("expcfg.VirtualFleet", func(lap func()) {
		lap()
		for i := range clients {
			c, err := tb.Fleet.Materialize(next % o.Fleet)
			if err != nil {
				panic(err) // ids below Size always materialise
			}
			clients[i] = c
			next += 97
		}
		lap()
		for _, c := range clients {
			tb.Fleet.Recycle(c)
		}
		lap()
	})
	m["expcfg.materialize_us"] = s[0] / float64(cohort) * 1e6
	m["expcfg.recycle_us"] = s[1] / float64(cohort) * 1e6
	built, recycled := tb.Fleet.SlotStats()
	m["expcfg.slots_built"] = float64(built)
	m["expcfg.slots_recycled"] = float64(recycled)

	labels := make([]int, o.TrainSamples)
	r := rng.New(5)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	part, err := data.NewLazyPartition(labels, data.PartitionSpec{
		Clients: o.Fleet, Alpha: o.Alpha, PerClient: o.BatchSize, MinPerClient: o.BatchSize,
	}, rng.New(6))
	if err != nil {
		return err
	}
	var idx []int
	id := 0
	m["data.lazy_indices_us"] = p.call("data.LazyPartition", func() {
		idx, _ = part.ClientIndices(id%o.Fleet, idx) // ids below Clients never fail
		id += 97
	}) * 1e6
	return nil
}

// probeClientCost fits per-client cost through the facade: the fleet
// workload at K=1 and K=3 local iterations, two rounds each after a warm-up,
// in CPU time per client. The intercept is the fixed cost of a client-round
// (materialise, download, narrow/widen, fold, recycle), the slope the cost of
// one more iteration. The cohort is a tenth of the workload's to bound the
// probe's run time; per-client cost does not depend on it.
func probeClientCost(p *prober, o fedca.Options, m map[string]float64) error {
	o.Participation /= 10
	perClient := func(k int) (float64, error) {
		id := p.spans.begin("probe:fl.client_cost", p.parent)
		defer p.spans.end(id)
		o.LocalIters = k
		f, err := fedca.New(o)
		if err != nil {
			return 0, err
		}
		f.RunRound()
		before := f.DegradationStats().CohortClients
		cpu0 := cpuSeconds()
		f.RunRound()
		f.RunRound()
		return (cpuSeconds() - cpu0) / float64(f.DegradationStats().CohortClients-before) * 1e3, nil
	}
	c1, err := perClient(1)
	if err != nil {
		return err
	}
	c3, err := perClient(3)
	if err != nil {
		return err
	}
	slope := (c3 - c1) / 2
	m["fl.client_iter_ms"] = slope
	m["fl.client_fixed_ms"] = c1 - slope
	return nil
}

// sharedProbes measures the busy numbers that do not depend on the invoking
// workload: the kernels at the CNN shapes of the two CNN workloads, both
// compressors, the virtual fleet, the per-client cost fit, the link and the
// chaos plan. One invocation runs them once, whatever the number of workloads.
func sharedProbes(p *prober, seed uint64, tiny bool) (map[string]float64, error) {
	m := map[string]float64{}
	options := func(name string) fedca.Options {
		w, _ := workloadByName(name)
		return w.options(seed, tiny)
	}
	fleet := options("fleet-cnn-f32")

	// Each dtype at the batch of the CNN workload that trains in it.
	m["tensor.gemm_f64_gflops"], m["tensor.im2col_f64_us"] = probeTensor[float64](p, "f64", options("cnn-fedca").BatchSize)
	m["tensor.gemm_f32_gflops"], m["tensor.im2col_f32_us"] = probeTensor[float32](p, "f32", fleet.BatchSize)

	if err := probeCompress(p, m); err != nil {
		return nil, err
	}
	if err := probeFleet(p, fleet, m); err != nil {
		return nil, err
	}
	if err := probeClientCost(p, fleet, m); err != nil {
		return nil, err
	}

	link := simnet.NewLink(simnet.DefaultClientBandwidth, 0)
	var t float64
	m["simnet.transfer_ns"] = p.call("simnet.Link", func() { _, t = link.TransferAttempts(t, 240e3, 1) }) * 1e9

	faulty := options("lstm-fedavg-chaos")
	ccfg, err := chaos.ParseSpec(faulty.Chaos)
	if err != nil {
		return nil, err
	}
	eng, err := chaos.NewEngine(ccfg, seed)
	if err != nil {
		return nil, err
	}
	i := 0
	m["chaos.plan_us"] = p.call("chaos.Engine", func() {
		eng.Plan(i%faulty.Clients, i/faulty.Clients, faulty.LocalIters, 0.2)
		i++
	}) * 1e6
	return m, nil
}

// workloadProbes measures the busy numbers taken at the workload's own
// shapes: its testbed build, one training iteration of its model at its batch
// and dtype, the evaluation of its test set, and FedCA's decisions at its
// parameter layout and K.
func workloadProbes(p *prober, w workload, seed uint64, tiny bool) (map[string]float64, error) {
	m := map[string]float64{}
	o := w.options(seed, tiny)
	wl, tcfg, err := programInputs(o)
	if err != nil {
		return nil, err
	}

	// The workload's own data, loader and test set, built the way fedca.New
	// builds them; the build itself is the expcfg busy number.
	var loader *data.Loader
	var test *data.Dataset
	m["expcfg.build_ms"] = p.call("expcfg.Build", func() {
		if o.Fleet > 0 {
			tb, berr := expcfg.BuildFleet(wl, o.Fleet, 0, tcfg, o.Seed)
			if berr != nil {
				err = berr
				return
			}
			c, merr := tb.Fleet.Materialize(0)
			if merr != nil {
				err = merr
				return
			}
			loader, test = c.Loader, tb.Test
		} else {
			tb := expcfg.Build(wl, o.Clients, tcfg, o.Seed)
			loader, test = tb.Clients[0].Loader, tb.Test
		}
	}) * 1e3
	if err != nil {
		return nil, err
	}
	if o.DType == "f32" {
		probeTraining[float32](p, wl, loader, m)
	} else {
		probeTraining[float64](p, wl, loader, m)
	}
	global := wl.NewModel(rng.New(1)).Network
	m["fl.evaluate_ms"] = p.call("fl.Evaluate", func() { fl.Evaluate(global, test, wl.FL.EvalBatch) }) * 1e3

	probeCore(p, wl, m)
	return m, nil
}
