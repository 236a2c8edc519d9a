package fl

import (
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/data"
	"fedca/internal/model"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// steadyStateAllocs replicates the per-iteration body of clientRound.iterate —
// arena reset, batch load, forward, loss, backward, SGD step — and measures
// its heap allocations after one warmup iteration has sized the arena slabs
// and the optimizer state. The kernel fan-out is pinned to the serial path
// (cap 1): goroutine spawning is allocation by design, and a real client
// training under a contended CPU-token budget runs serially anyway.
func steadyStateAllocs[F tensor.Float](t *testing.T, net *nn.NetworkOf[F]) float64 {
	t.Helper()
	old := cputok.Default().Setting()
	cputok.Default().SetCap(1)
	defer cputok.Default().SetCap(old)

	w := newTrainWorkerOf(net, &deltaPool{}, nil)
	gen := data.NewImageGenerator(data.ImageSpec{
		Classes: 4, Channels: 1, Height: 8, Width: 8, Noise: 1,
	}, rng.New(5))
	loader := data.NewLoader(gen.Generate(64, rng.New(7)), 8, rng.New(6))
	batch, dim := loader.BatchSize(), loader.Dim()
	opt := nn.NewSGDOf[F](0.01, 0.9, 0.001)
	params := net.Params()
	y := make([]int, batch)

	iter := func() {
		w.arena.Reset()
		x := w.alloc(batch, dim)
		data.NextInto(loader, x.Data(), y)
		net.ZeroGrad()
		logits := net.Forward(x, true)
		dlogits := w.alloc(logits.Dim(0), logits.Dim(1))
		nn.SoftmaxCrossEntropyInto(logits, y, dlogits)
		net.Backward(dlogits)
		opt.Step(params)
	}
	// The first warmup grows the arena's chunks, which Reset keeps, and
	// builds the SGD velocity state; after it an iteration makes nothing.
	// The second changes nothing and is margin.
	iter()
	iter()
	return testing.AllocsPerRun(10, iter)
}

// TestSteadyStateTrainingZeroAlloc is the math-floor guarantee the arena
// exists for: once warmed up, a client training iteration performs zero heap
// allocations at either dtype, on the dense, the conv/pool and the LSTM paths.
func TestSteadyStateTrainingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	img := model.ImageConfig{Channels: 1, Height: 8, Width: 8, Classes: 4}
	t.Run("cnn/f64", func(t *testing.T) {
		if n := steadyStateAllocs(t, model.NewCNNOf[float64](img, rng.New(1)).Network); n != 0 {
			t.Fatalf("steady-state f64 CNN iteration allocated %v times; want 0", n)
		}
	})
	t.Run("cnn/f32", func(t *testing.T) {
		if n := steadyStateAllocs(t, model.NewCNNOf[float32](img, rng.New(1)).Network); n != 0 {
			t.Fatalf("steady-state f32 CNN iteration allocated %v times; want 0", n)
		}
	})
	// The same 64 values read as eight timesteps of eight features. Hidden 5
	// leaves the vector kernels — the cell and the gate gradients — a tail.
	seq := model.SeqConfig{SeqLen: 8, FeatDim: 8, Hidden: 5, Layers: 2, Classes: 4}
	t.Run("lstm/f64", func(t *testing.T) {
		if n := steadyStateAllocs(t, model.NewLSTMOf[float64](seq, rng.New(1)).Network); n != 0 {
			t.Fatalf("steady-state f64 LSTM iteration allocated %v times; want 0", n)
		}
	})
	t.Run("lstm/f32", func(t *testing.T) {
		if n := steadyStateAllocs(t, model.NewLSTMOf[float32](seq, rng.New(1)).Network); n != 0 {
			t.Fatalf("steady-state f32 LSTM iteration allocated %v times; want 0", n)
		}
	})
}

// countingObserver counts the calls it receives, and the eager records its
// client-rounds still carry; it allocates nothing.
type countingObserver struct {
	clientRounds, eager, rounds int
}

func (o *countingObserver) ClientRound(_ int, _ float64, u *Update) {
	o.clientRounds++
	o.eager += len(u.Eager)
}

func (o *countingObserver) RoundDone(RoundRecord, RoundMeta) { o.rounds++ }

// TestObserverCallsZeroAlloc: the record stage reaches its observers
// through a slice of interfaces, and one round's calls through a
// two-element Config.Observers — the walk's ClientRound per client-round,
// the RoundMeta, the stage table and RoundDone — allocate nothing.
func TestObserverCallsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	const k = 4
	clients := []*Client{{ID: 0, Weight: 1}, {ID: 1, Weight: 1}, {ID: 2, Weight: 1}}
	a, b := &countingObserver{}, &countingObserver{}
	r := &Runner{
		Cfg:   Config{LocalIters: k, Observers: []Observer{a, b}},
		Fleet: NewStaticFleet(clients),
		Hist:  NewHistory(),
		stats: RunStats{
			EarlyStopsByIter:  make([]int, k+1),
			EagerByIter:       make([]int, k+1),
			RetransmitsByIter: make([]int, k+1),
		},
	}
	eager := []EagerRecord{{Layer: 0, Iter: 2}, {Layer: 1, Iter: 3, Retransmitted: true}}
	collected := []Update{
		{ClientID: 0, Iterations: k, TrainTime: 1, EagerSent: 2, Retransmitted: 1},
		{ClientID: 1, Iterations: 3, TrainTime: 1, EarlyStop: true},
	}
	discarded := []Update{{ClientID: 2, Iterations: 2, TrainTime: 0.5, Dropped: true}}
	cohort := make([]*Client, len(clients))
	round := func() {
		copy(cohort, clients)
		collected[0].Eager = eager
		res := RoundResult{Collected: collected, Discarded: discarded}
		r.clock.start()
		meta := r.record(&res, cohort)
		r.clock.lap(stageObserve)
		r.roundDone(res.RoundRecord, meta)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("one round's observer calls allocated %v times; want 0", n)
	}
	const rounds = 101 + 1 // AllocsPerRun's warmup call, then its runs
	for _, o := range []*countingObserver{a, b} {
		if o.clientRounds != 3*rounds || o.rounds != rounds || o.eager != len(eager)*rounds {
			t.Fatalf("observer saw %d client-rounds with %d eager records and %d rounds; want %d, %d and %d",
				o.clientRounds, o.eager, o.rounds, 3*rounds, len(eager)*rounds, rounds)
		}
	}
}
