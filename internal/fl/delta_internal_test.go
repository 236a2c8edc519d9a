package fl

import (
	"math"
	"testing"

	"fedca/internal/tensor"
)

// deltaWatcher embeds NopController and reads the delta it is handed, as a
// controller with behaviour of its own may: it must see, after every
// iteration, the update accumulated up to that iteration.
type deltaWatcher struct {
	NopController
	norms []float64
}

func (d *deltaWatcher) AfterIteration(s IterState) IterAction {
	sum := 0.0
	for _, v := range s.Delta {
		sum += v * v
	}
	d.norms = append(d.norms, sum)
	return IterAction{}
}

func testDeltaOnceMatchesPerIteration[F tensor.Float](t *testing.T) {
	cfg := Config{LocalIters: 3, BatchSize: 4, LR: 0.05, WeightDecay: 1e-4, BaseIterTime: 0.1, AggregateFraction: 1}
	ds := benchData("cnn", 32)
	global := benchModel[float64]("cnn").FlatParams()
	plan := RoundPlan{Deadline: math.Inf(1)}
	run := func(ctrl Controller) Update {
		w := newTrainWorkerOf(benchModel[F]("cnn"), &deltaPool{}, nil)
		return w.run(roundClient(ds, cfg.BatchSize), global, &cfg, plan, ctrl, 0, 0, false, nil)
	}
	once := run(NopController{})
	watcher := &deltaWatcher{}
	each := run(watcher)
	if len(once.Delta) == 0 || len(once.Delta) != len(each.Delta) {
		t.Fatalf("delta lengths %d and %d", len(once.Delta), len(each.Delta))
	}
	for i := range once.Delta {
		if math.Float64bits(once.Delta[i]) != math.Float64bits(each.Delta[i]) {
			t.Fatalf("delta[%d] is %v when computed once, %v when computed after every iteration", i, once.Delta[i], each.Delta[i])
		}
	}
	if once.TrainLoss != each.TrainLoss || once.UploadBytes != each.UploadBytes || once.CompletionTime != each.CompletionTime {
		t.Fatalf("updates differ: %+v vs %+v", once, each)
	}
	// The embedding controller saw a delta that kept moving, and its last
	// view is the uploaded one.
	if len(watcher.norms) != cfg.LocalIters {
		t.Fatalf("AfterIteration ran %d times, want %d", len(watcher.norms), cfg.LocalIters)
	}
	final := 0.0
	for _, v := range each.Delta {
		final += v * v
	}
	for i, n := range watcher.norms {
		if n == 0 || (i > 0 && n == watcher.norms[i-1]) {
			t.Fatalf("the delta handed to AfterIteration did not move: squared norms %v", watcher.norms)
		}
	}
	if watcher.norms[len(watcher.norms)-1] != final {
		t.Fatalf("last delta seen has squared norm %v, the uploaded one %v", watcher.norms[len(watcher.norms)-1], final)
	}
}

// TestDeltaOnceMatchesPerIteration: plain FedAvg (the exact type
// NopController) computes the accumulated update once, after the last
// iteration, and uploads the same bits as a round that recomputed it after
// every iteration; a controller that merely embeds NopController still gets
// the per-iteration delta.
func TestDeltaOnceMatchesPerIteration(t *testing.T) {
	t.Run("f64", testDeltaOnceMatchesPerIteration[float64])
	t.Run("f32", testDeltaOnceMatchesPerIteration[float32])
}

// TestDeltaPoolRecyclesWithoutAllocating: once a vector has been put back,
// a get/put pair hands it out again and allocates nothing.
func TestDeltaPoolRecyclesWithoutAllocating(t *testing.T) {
	var dp deltaPool
	v := dp.get(64)
	dp.put(v)
	if n := testing.AllocsPerRun(100, func() { dp.put(dp.get(64)) }); n != 0 {
		t.Fatalf("a get/put pair allocated %v times", n)
	}
	if got := dp.get(64); &got[0] != &v[0] {
		t.Fatal("get did not return the recycled vector")
	}
}
