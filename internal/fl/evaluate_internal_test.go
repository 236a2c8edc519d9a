package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	_ "unsafe" // go:linkname

	"fedca/internal/compress"
	"fedca/internal/cputok"
	"fedca/internal/data"
	"fedca/internal/model"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/simnet"
	"fedca/internal/tensor"
	"fedca/internal/trace"
)

// arenaPoison is internal/tensor's unexported test hook: while set, every
// non-zeroing arena allocation and every released buffer is filled with NaN
// (argmax −1, mask true).
//
//go:linkname arenaPoison fedca/internal/tensor.poison
var arenaPoison bool

// The three models at the shapes the benchmark's workloads train them at
// (expcfg.CNN, WRN and LSTM; that package imports this one).
var (
	benchImg = model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 10}
	benchWRN = model.WRNConfig{Image: model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 20}, BlocksPerGroup: 2, Width: 8}
	benchSeq = model.SeqConfig{SeqLen: 10, FeatDim: 8, Hidden: 24, Layers: 2, Classes: 10}
)

func benchModel[F tensor.Float](name string) *nn.NetworkOf[F] {
	switch name {
	case "lstm":
		return model.NewLSTMOf[F](benchSeq, rng.New(3)).Network
	case "wrn":
		return model.NewWRNOf[F](benchWRN, rng.New(3)).Network
	}
	return model.NewCNNOf[F](benchImg, rng.New(3)).Network
}

// benchData draws n samples shaped for the named model.
func benchData(name string, n int) *data.Dataset {
	switch name {
	case "lstm":
		return data.NewSeqGenerator(data.SeqSpec{Classes: benchSeq.Classes, SeqLen: benchSeq.SeqLen, FeatDim: benchSeq.FeatDim, Noise: 0.8}, rng.New(5)).Generate(n, rng.New(6))
	case "wrn":
		img := benchWRN.Image
		return data.NewImageGenerator(data.ImageSpec{Classes: img.Classes, Channels: img.Channels, Height: img.Height, Width: img.Width, Noise: 1}, rng.New(5)).Generate(n, rng.New(6))
	}
	return data.NewImageGenerator(data.ImageSpec{Classes: benchImg.Classes, Channels: benchImg.Channels, Height: benchImg.Height, Width: benchImg.Width, Noise: 1}, rng.New(5)).Generate(n, rng.New(6))
}

// widened returns ds's rows as a float64 heap tensor, each feature widened.
func widened(ds *data.Dataset) *tensor.Tensor {
	x := tensor.New(ds.N(), ds.Dim())
	for i, v := range ds.X.Data() {
		x.Data()[i] = float64(v)
	}
	return x
}

// poisonArenas switches the hook on for the rest of the test, and checks that
// the link to internal/tensor holds.
func poisonArenas(t *testing.T) {
	t.Helper()
	arenaPoison = true
	t.Cleanup(func() { arenaPoison = false })
	if v := tensor.AllocUninitOf[float64](tensor.NewArena(), 1).Data()[0]; v == v {
		t.Fatalf("poison hook not linked: a non-zeroing allocation holds %v", v)
	}
}

func setTokenCap(t *testing.T, n int) {
	t.Helper()
	old := cputok.Default().Setting()
	cputok.Default().SetCap(n)
	t.Cleanup(func() { cputok.Default().SetCap(old) })
}

// TestEvaluateSteadyStateZeroAlloc is the training guard's sibling: once a
// first call has sized the arena, evaluating an arena-bound model — ragged
// last batch included — performs zero heap allocations. The fan-out is pinned
// to its serial path, as there: starting goroutines allocates by design.
func TestEvaluateSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	setTokenCap(t, 1)
	for _, name := range []string{"cnn", "wrn", "lstm"} {
		t.Run(name, func(t *testing.T) {
			net := benchModel[float64](name)
			net.SetArena(tensor.NewArena())
			ds := benchData(name, 40)
			eval := func() { Evaluate(net, ds, 16) }
			eval()
			eval()
			if n := testing.AllocsPerRun(5, eval); n != 0 {
				t.Fatalf("steady-state Evaluate allocated %v times; want 0", n)
			}
		})
	}
}

// chunkLogits runs ds through net in consecutive batches of batch samples,
// as Evaluate does, and returns every sample's logits in order.
func chunkLogits(net *nn.Network, ds *data.Dataset, batch int) []float64 {
	var out []float64
	for start := 0; start < ds.N(); start += batch {
		out = append(out, evalForward(net, ds, start, min(batch, ds.N()-start)).Data()...)
	}
	return out
}

// TestEvaluateWidensFloat32Rows: Evaluate reads the dataset's float32 rows
// widened. Batch by batch, its logits are, bit for bit, those Forward gives
// on an explicitly widened float64 tensor in a heap-only network, and its
// accuracy is theirs — from the heap and from an arena, at one token and at
// two, for the three models (the WRN in exact batches, the others in chunks).
func TestEvaluateWidensFloat32Rows(t *testing.T) {
	const n, batch = 150, 64
	for _, name := range []string{"cnn", "wrn", "lstm"} {
		ds := benchData(name, n)
		wide, dim := widened(ds).Data(), ds.Dim()
		ref := benchModel[float64](name)
		split := evalSplit(ref, batch, n)
		var want []float64
		correct := 0
		for start := 0; start < n; start += split {
			bs := min(split, n-start)
			logits := ref.Forward(tensor.ViewOf(nil, wide[start*dim:(start+bs)*dim], bs, dim), false)
			for b := 0; b < bs; b++ {
				if logits.ArgMaxRow(b) == ds.Y[start+b] {
					correct++
				}
			}
			want = append(want, logits.Data()...)
		}
		wantAcc := float64(correct) / n
		for _, tokens := range []int{1, 2} {
			setTokenCap(t, tokens)
			for _, withArena := range []bool{false, true} {
				net := benchModel[float64](name)
				if withArena {
					net.SetArena(tensor.NewArena())
				}
				got := chunkLogits(net, ds, split)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, %d tokens, arena %v: logit %d is %v, %v from the widened tensor", name, tokens, withArena, i, got[i], want[i])
					}
				}
				if acc := Evaluate(net, ds, batch); acc != wantAcc {
					t.Fatalf("%s, %d tokens, arena %v: Evaluate scores %v, %v from the widened tensor", name, tokens, withArena, acc, wantAcc)
				}
			}
		}
	}
}

// TestEvaluateChunkInvariantLogits: without batch norm, a sample's logits do
// not depend on the batch it is evaluated in, which is what lets Evaluate run
// such a network in small chunks. The CNN and the LSTM give every sample the
// same logits, bit for bit, at batches 1, 7, 64 and 256, from the heap and
// from an arena, at one token and at two (where the layers fan out inside a
// batch); CI runs this under -race -count=10.
func TestEvaluateChunkInvariantLogits(t *testing.T) {
	const n = 256
	for _, name := range []string{"cnn", "lstm"} {
		ds := benchData(name, n)
		var want []float64
		for _, tokens := range []int{1, 2} {
			setTokenCap(t, tokens)
			for _, withArena := range []bool{false, true} {
				net := benchModel[float64](name)
				if net.BatchCoupled() {
					t.Fatalf("%s: BatchCoupled with no batch norm", name)
				}
				if withArena {
					net.SetArena(tensor.NewArena())
				}
				for _, batch := range []int{1, 7, 64, 256} {
					got := chunkLogits(net, ds, batch)
					if want == nil {
						want = got
						continue
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s, %d tokens, arena %v, batch %d: logit %d is %v, %v at batch 1", name, tokens, withArena, batch, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestEvaluateKeepsEvalBatchUnderBatchNorm: only a network without batch norm
// is evaluated in chunks. The WRN, whose batch norm normalizes with the
// statistics of the batch it is given, keeps exact EvalBatch batches. Labelled
// with its own predictions in batches of 256, a test set scores 1 at batch
// 256, and less in chunks of 64, where some predictions move.
func TestEvaluateKeepsEvalBatchUnderBatchNorm(t *testing.T) {
	for _, name := range []string{"cnn", "wrn", "lstm"} {
		if got, want := benchModel[float64](name).BatchCoupled(), name == "wrn"; got != want {
			t.Fatalf("%s: BatchCoupled %v, want %v", name, got, want)
		}
	}
	wrn, cnn := benchModel[float64]("wrn"), benchModel[float64]("cnn")
	for _, c := range []struct{ batch, n, wrn, cnn int }{
		{256, 1000, 256, evalChunk},
		{0, 300, 300, evalChunk},
		{500, 300, 300, evalChunk},
		{16, 40, 16, 16},
	} {
		if got := evalSplit(wrn, c.batch, c.n); got != c.wrn {
			t.Fatalf("wrn: batch %d of %d samples runs in batches of %d, want %d", c.batch, c.n, got, c.wrn)
		}
		if got := evalSplit(cnn, c.batch, c.n); got != c.cnn {
			t.Fatalf("cnn: batch %d of %d samples runs in batches of %d, want %d", c.batch, c.n, got, c.cnn)
		}
	}
	ds := benchData("wrn", 512)
	predict := func(batch int) []int {
		logits := chunkLogits(wrn, ds, batch)
		classes := len(logits) / ds.N()
		pred := make([]int, ds.N())
		for i := range pred {
			pred[i] = tensor.ViewOf(nil, logits[i*classes:(i+1)*classes], 1, classes).ArgMaxRow(0)
		}
		return pred
	}
	ds.Y = predict(256)
	moved := 0
	for i, p := range predict(evalChunk) {
		if p != ds.Y[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("wrn: chunks of %d predict what batches of 256 do; the guard needs a split that moves a prediction", evalChunk)
	}
	if got := Evaluate(wrn, ds, 256); got != 1 {
		t.Fatalf("wrn: Evaluate at batch 256 scores %v on its own predictions at batch 256, want 1 (chunks of %d move %d of them)", got, evalChunk, moved)
	}
}

// arenaRetained is internal/tensor's unexported test hook: the bytes an
// arena's chunks hold over every slab — all it keeps between generations.
//
//go:linkname arenaRetained fedca/internal/tensor.retainedBytes
var arenaRetained func(*tensor.Arena) int

// arenaFloat64s returns the arena's retained capacity in float64s: every
// byte its chunks hold, of any slab, counted as float64s.
func arenaFloat64s(a *tensor.Arena) int { return arenaRetained(a) / 8 }

// TestEvaluateArenaHighWater: an inference pass holds a few activations, not
// one per layer. In the WRN at the evaluation batch, every layer after the
// first convolution either writes over the activation it is handed or takes
// one of its own and hands the other back, and a residual block sums into
// its body's result: the block's input and that result, plus the
// convolutions' scratch, are the most it holds, so two and a half of its
// largest activation bound it. Losing the in-place forms (nn's
// ownedForwarder) takes it back above three: a third activation for every
// batch norm, convolution and sum. The LSTM, whose layer allocates per
// timestep and so escapes the chain's discipline unless it releases for
// itself, must stay under what the same pass demands when nothing is
// released — what its evaluation takes from the heap per batch with no arena
// bound. Both
// networks run one batch of 256 samples (the WRN holds a batch norm, so
// Evaluate keeps the batch whole; the LSTM's is run directly, as Evaluate
// would chunk it).
func TestEvaluateArenaHighWater(t *testing.T) {
	const batch = 256
	setTokenCap(t, 1) // no fan-out: the heap measurement counts the pass alone
	input := func(name string) (*nn.Network, *tensor.Tensor, int) {
		net, ds := benchModel[float64](name), benchData(name, batch)
		largest := ds.Dim()
		net.VisitLayers(func(l nn.LayerOf[float64]) { largest = max(largest, l.OutDim()) })
		return net, widened(ds), largest * batch
	}
	highWater := func(name string) (elems, largest int) {
		net, x, largest := input(name)
		arena := tensor.NewArena()
		net.SetArena(arena)
		net.Forward(x, false)
		return arenaFloat64s(arena), largest
	}
	// fromHeap is what the pass allocates with no arena bound, where nothing
	// is handed back: the sum of every layer's allocations, in float64s.
	fromHeap := func(name string) int {
		net, x, _ := input(name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net.Forward(x, false)
		runtime.ReadMemStats(&after)
		return int(after.TotalAlloc-before.TotalAlloc) / 8
	}
	wrn, largest := highWater("wrn")
	t.Logf("wrn: inference high-water %d float64s = %.2f × the largest activation (%d); without release %d", wrn, float64(wrn)/float64(largest), largest, fromHeap("wrn"))
	if 2*wrn > 5*largest {
		t.Fatalf("wrn inference high-water %d float64s exceeds 2.5 × its largest activation (%d)", wrn, largest)
	}
	lstm, _ := highWater("lstm")
	lstmAll := fromHeap("lstm")
	t.Logf("lstm: inference high-water %d float64s; without release %d", lstm, lstmAll)
	if lstm > lstmAll/4 {
		t.Fatalf("lstm inference high-water %d float64s is not well under the %d an unreleased pass takes: per-timestep buffers are not reused", lstm, lstmAll)
	}
}

// TestEvaluateFanOutMatchesSerialHeap: accuracy is one number, whatever
// evaluates it — heap or arena, one token or four, and with a test set that
// is not a multiple of the batch (the ragged batch normalizes with its own
// statistics either way). With more than one token the layers between the
// products fan out inside a batch; CI runs this under -race -count=10.
func TestEvaluateFanOutMatchesSerialHeap(t *testing.T) {
	for _, name := range []string{"cnn", "wrn", "lstm"} {
		t.Run(name, func(t *testing.T) {
			const n, batch = 150, 64 // 64 + 64 + 22
			ds := benchData(name, n)
			setTokenCap(t, 1)
			want := Evaluate(benchModel[float64](name), ds, batch)
			if want <= 0 || want >= 1 {
				t.Logf("accuracy %v: the untrained model separates nothing, the comparison still holds", want)
			}
			arenaNet := benchModel[float64](name)
			arenaNet.SetArena(tensor.NewArena())
			for _, tokens := range []int{1, 2, 4} {
				cputok.Default().SetCap(tokens)
				for pass := 0; pass < 2; pass++ { // cold arena, then warm
					if got := Evaluate(arenaNet, ds, batch); got != want {
						t.Fatalf("%d tokens, pass %d: arena accuracy %v, serial heap accuracy %v", tokens, pass, got, want)
					}
				}
				if got := Evaluate(benchModel[float64](name), ds, batch); got != want {
					t.Fatalf("%d tokens: heap accuracy %v, serial heap accuracy %v", tokens, got, want)
				}
			}
		})
	}
}

// TestEvaluateLeavesTestSetUntouched: an inference pass writes over only the
// tensors its chain created, never the batch it is handed, and never the test
// set's rows, which it widens into that batch. The test set's bytes hash the
// same after Evaluate as
// before — for a CNN and a WRN, and for a network whose first layer is a
// ReLU, the case that holds the batch itself — with and without an arena,
// and a second call returns the first's accuracy.
func TestEvaluateLeavesTestSetUntouched(t *testing.T) {
	reluFirst := func() *nn.Network {
		dim := benchImg.Channels * benchImg.Height * benchImg.Width
		return nn.NewNetworkOf[float64](nn.NewReLUOf[float64](dim), nn.NewDenseOf[float64]("fc", dim, benchImg.Classes, rng.New(3)))
	}
	for _, tc := range []struct {
		name, data string
		net        func() *nn.Network
	}{
		{"cnn", "cnn", func() *nn.Network { return benchModel[float64]("cnn") }},
		{"wrn", "wrn", func() *nn.Network { return benchModel[float64]("wrn") }},
		{"relu-first", "cnn", reluFirst},
	} {
		for _, withArena := range []bool{false, true} {
			ds := benchData(tc.data, 150)
			digest := func() [sha256.Size]byte {
				b := make([]byte, 0, 4*len(ds.X.Data()))
				for _, v := range ds.X.Data() {
					b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
				}
				return sha256.Sum256(b)
			}
			net := tc.net()
			if withArena {
				net.SetArena(tensor.NewArena())
			}
			before := digest()
			first := Evaluate(net, ds, 64)
			second := Evaluate(net, ds, 64)
			if after := digest(); after != before {
				t.Errorf("%s (arena %v): Evaluate wrote into its test set: SHA-256 %x before, %x after", tc.name, withArena, before, after)
			}
			if first != second {
				t.Errorf("%s (arena %v): two calls returned accuracy %v and %v", tc.name, withArena, first, second)
			}
		}
	}
}

// TestEvaluateLogitsMatchHeapUnderPoison goes below the accuracy: per batch,
// the arena-bound inference pass produces the heap pass's logits bit for bit
// while every uninitialised and every released buffer reads NaN.
func TestEvaluateLogitsMatchHeapUnderPoison(t *testing.T) {
	poisonArenas(t)
	setTokenCap(t, 3)
	for _, name := range []string{"cnn", "wrn", "lstm"} {
		heap, arenaNet := benchModel[float64](name), benchModel[float64](name)
		arena := tensor.NewArena()
		arenaNet.SetArena(arena)
		ds := benchData(name, 48)
		for pass := 0; pass < 2; pass++ {
			arena.Reset()
			x := widened(ds)
			want, got := heap.Forward(x, false).Data(), arenaNet.Forward(x, false).Data()
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("%s pass %d: logit %d is %v from the arena, %v from the heap", name, pass, i, got[i], want[i])
				}
			}
		}
	}
}

// wholeLoader is a loader over every row of ds.
func wholeLoader(ds *data.Dataset, batch int, r *rng.RNG) *data.Loader {
	rows := make([]int, ds.N())
	for i := range rows {
		rows[i] = i
	}
	return data.NewViewLoader(ds, rows, batch, r)
}

// roundClient builds one client over ds; two calls give two clients in the
// same state.
func roundClient(ds *data.Dataset, batch int) *Client {
	return &Client{
		ID: 1, Loader: wholeLoader(ds, batch, rng.New(8)),
		Speed:  trace.NewClientSpeed(1, trace.PaperConfig(), rng.New(9)),
		Up:     simnet.NewLink(simnet.DefaultClientBandwidth, 0),
		Down:   simnet.NewLink(simnet.DefaultClientBandwidth, 0),
		Weight: float64(ds.N()),
	}
}

// testRoundMatchesHeapUnderPoison runs whole client rounds — batch load,
// forward, loss, backward, step, delta, upload — on an arena-bound worker
// under the poison hook, and demands the update the same rounds produce with
// the hook off, bit for bit, round after round (later rounds run in recycled
// slabs). Whatever reads memory before writing it reads NaN under the hook,
// and the NaN reaches the delta. With evaluate set, a float64 global model
// bound to the worker's arena, as the runner binds it, is evaluated between
// rounds — train, evaluate, train — and its accuracy must match too.
func testRoundMatchesHeapUnderPoison[F tensor.Float](t *testing.T, name string, comp compress.Compressor, evaluate bool) {
	// The benchmark's smoke-test size: K = 2, batch 4.
	cfg := Config{LocalIters: 2, BatchSize: 4, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, BaseIterTime: 0.1, AggregateFraction: 1, Compressor: comp}
	ds := benchData(name, 32)
	plan := RoundPlan{Deadline: math.Inf(1)}
	rounds := func() ([]Update, []float64) {
		w := newTrainWorkerOf(benchModel[F](name), &deltaPool{}, nil)
		if err := cfg.Validate(w.numParams()); err != nil {
			t.Fatal(err)
		}
		c := roundClient(ds, cfg.BatchSize)
		globalNet := benchModel[float64](name)
		if evaluate {
			w.lendArena(globalNet)
		}
		global := globalNet.FlatParams()
		var out []Update
		var accs []float64
		for round := 0; round < 3; round++ {
			u := w.run(roundInput{c: c, ctrl: NopController{}, global: global, cfg: &cfg, plan: plan, round: round, start: float64(round) * 100})
			out = append(out, u)
			// Move the global model so that the next round starts elsewhere.
			for i := range global {
				global[i] += u.Delta[i]
			}
			if evaluate {
				globalNet.SetFlatParams(global)
				accs = append(accs, Evaluate(globalNet, ds, 12))
			}
		}
		return out, accs
	}
	clean, cleanAccs := rounds()
	poisonArenas(t)
	poisoned, poisonedAccs := rounds()
	if !reflect.DeepEqual(cleanAccs, poisonedAccs) {
		t.Fatalf("accuracies between rounds: %v under poison, %v without", poisonedAccs, cleanAccs)
	}
	for round, want := range clean {
		got := poisoned[round]
		if got.Iterations != want.Iterations || got.TrainLoss != want.TrainLoss || got.UploadBytes != want.UploadBytes || got.CompletionTime != want.CompletionTime {
			t.Fatalf("round %d: update under poison %+v, without %+v", round, got, want)
		}
		if len(got.Delta) != len(want.Delta) || len(want.Delta) == 0 {
			t.Fatalf("round %d: delta lengths %d and %d", round, len(got.Delta), len(want.Delta))
		}
		for i := range want.Delta {
			if math.Float64bits(got.Delta[i]) != math.Float64bits(want.Delta[i]) {
				t.Fatalf("round %d: delta[%d] is %v under poison, %v without", round, i, got.Delta[i], want.Delta[i])
			}
		}
	}
}

// TestClientRoundPanicsOnSizeMismatch: a global vector that does not fit the
// worker's model is a broken caller, caught before anything trains.
func TestClientRoundPanicsOnSizeMismatch(t *testing.T) {
	cfg := Config{LocalIters: 1, BatchSize: 4, LR: 0.05, BaseIterTime: 0.1, AggregateFraction: 1}
	w := newTrainWorkerOf(benchModel[float64]("cnn"), &deltaPool{}, nil)
	if err := cfg.Validate(w.numParams()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: global vector size mismatch")
		}
	}()
	w.run(roundInput{c: roundClient(benchData("cnn", 8), cfg.BatchSize), ctrl: NopController{}, global: make([]float64, 3), cfg: &cfg, plan: RoundPlan{Deadline: math.Inf(1)}})
}

// TestClientRoundMatchesHeapUnderPoison: one case per benchmark workload, at
// its model, dtype and compressor.
func TestClientRoundMatchesHeapUnderPoison(t *testing.T) {
	qsgd7, err := compress.ByName("qsgd7")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cnn-fedca", func(t *testing.T) { testRoundMatchesHeapUnderPoison[float64](t, "cnn", nil, false) })
	t.Run("wrn-fedca-qsgd", func(t *testing.T) { testRoundMatchesHeapUnderPoison[float64](t, "wrn", qsgd7, false) })
	t.Run("lstm-fedavg-chaos", func(t *testing.T) { testRoundMatchesHeapUnderPoison[float64](t, "lstm", nil, false) })
	t.Run("fleet-cnn-f32", func(t *testing.T) { testRoundMatchesHeapUnderPoison[float32](t, "cnn", nil, false) })
	t.Run("wrn-train-evaluate-train", func(t *testing.T) { testRoundMatchesHeapUnderPoison[float64](t, "wrn", qsgd7, true) })
}

// arenaProbe is a scheme whose Carry — serial, after the train stage has
// joined every worker and before the evaluate stage — reads what worker 0's
// arena retains. It carries nothing: the arena's layout depends on the
// shapes that run on it, not on the parameters.
type arenaProbe struct {
	arena      *tensor.Arena
	afterTrain []int
}

func (*arenaProbe) Name() string                                     { return "arena-probe" }
func (*arenaProbe) PlanRound(int, *History) RoundPlan                { return RoundPlan{Deadline: math.Inf(1)} }
func (*arenaProbe) NewController(*Client, int, RoundPlan) Controller { return NopController{} }
func (p *arenaProbe) Carry(int, []Update) []Update {
	p.afterTrain = append(p.afterTrain, arenaRetained(p.arena))
	return nil
}

// wrnNets builds the benchmark's WRN for a runner.
type wrnNets struct{}

func (wrnNets) New64() *nn.Network            { return benchModel[float64]("wrn") }
func (wrnNets) New32() *nn.NetworkOf[float32] { return benchModel[float32]("wrn") }

// TestEvalArenaLaidOutFirst: worker 0's arena hosts both training and the
// global model's evaluation, whose batch of EvalBatch samples is the largest
// generation it ever runs. NewFleetRunner runs one such batch before any
// training, so its activations lay out the arena's chunks and every training
// iteration is cut from them. After three rounds the arena retains no more
// than a fresh arena does after one evaluation batch of the same network,
// plus a slack for the slabs only training draws from (ReLU masks, headers
// and shapes of the backward pass), and no round's evaluate stage adds a
// chunk. Laid out by training first, the arena keeps training's small
// chunks, which the evaluation batch cannot use, beside the ones it adds.
// The float32 CNN, trained as the benchmark's fleet-cnn-f32 trains it, is
// cut from the float64 evaluation's chunks too: both float types share one
// slab. With a float32 slab of its own laid out beside them, the arena
// retained 3.51–3.57 MiB after three rounds, against 2.33 MiB shared and
// 2.26 MiB for the fresh arena.
func TestEvalArenaLaidOutFirst(t *testing.T) {
	// A fresh arena measured 10.36 MiB after one evaluation batch at the
	// WRN's geometry: 8.86 MiB of activations (12.86 MiB while batch norm,
	// the equal-shape convolutions and the residual sum each took a fresh
	// activation on an inference pass) and the 1.5 MiB batch the float32
	// rows are widened into. Training's own slabs took 0.26 MiB beside it.
	t.Run("wrn-f64", func(t *testing.T) { testEvalArenaLaidOutFirst(t, "wrn", "", wrnNets{}, 16, 512<<10) })
	t.Run("cnn-f32", func(t *testing.T) { testEvalArenaLaidOutFirst(t, "cnn", "f32", cnnNets{}, 10, 256<<10) })
}

func testEvalArenaLaidOutFirst(t *testing.T, name, dtype string, nets Networks, trainBatch, slack int) {
	const batch, clients, rounds = 256, 4, 3
	setTokenCap(t, 2)
	train, test := benchData(name, 64), benchData(name, batch)

	fresh := tensor.NewArena()
	net := benchModel[float64](name)
	net.SetArena(fresh)
	Evaluate(net, test, batch)
	bound := arenaRetained(fresh) + slack

	cs := make([]*Client, clients)
	for i := range cs {
		cs[i] = roundClient(train, trainBatch)
		cs[i].ID = i
	}
	cfg := Config{LocalIters: 2, BatchSize: trainBatch, LR: 0.05, BaseIterTime: 0.1, AggregateFraction: 1, EvalBatch: batch, DType: dtype}
	probe := &arenaProbe{}
	r, err := NewFleetRunner(cfg, NewStaticFleet(cs), probe, test, nets)
	if err != nil {
		t.Fatal(err)
	}
	probe.arena = r.global.Arena()
	for round := 0; round < rounds; round++ {
		r.RunRound()
		after := arenaRetained(probe.arena)
		t.Logf("round %d: worker 0's arena retains %.2f MiB after train, %.2f MiB after evaluate; a fresh arena %.2f MiB after one evaluation batch",
			round, float64(probe.afterTrain[round])/(1<<20), float64(after)/(1<<20), float64(bound-slack)/(1<<20))
		if after != probe.afterTrain[round] {
			t.Errorf("round %d: the evaluate stage grew worker 0's arena from %d to %d bytes", round, probe.afterTrain[round], after)
		}
	}
	if got := arenaRetained(probe.arena); got > bound {
		t.Fatalf("worker 0's arena retains %d bytes after %d rounds: %d more than a fresh arena after one evaluation batch, over the slack of %d", got, rounds, got-bound+slack, slack)
	}
}
