package fl

import (
	"math"
	"slices"
	"testing"

	"fedca/internal/tensor"
)

// deltaWatcher embeds NopController and reads the delta after every
// iteration, twice: it must see the update accumulated up to that iteration,
// the same values on both reads.
type deltaWatcher struct {
	NopController
	t     *testing.T
	norms []float64
}

func (d *deltaWatcher) AfterIteration(s IterState) IterAction {
	first := slices.Clone(s.Accumulated())
	if again := s.Accumulated(); !slices.EqualFunc(first, again, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		d.t.Fatalf("iteration %d: a second read of the delta differs from the first", s.Iter)
	}
	sum := 0.0
	for _, v := range first {
		sum += v * v
	}
	d.norms = append(d.norms, sum)
	return IterAction{}
}

// deltaIgnorer embeds NopController and never reads the delta, as FedProx's
// controller does: after every iteration, the round's update vector, which
// the test fills with NaN and pools before the round, must still hold NaN.
type deltaIgnorer struct {
	NopController
	t     *testing.T
	buf   []float64
	iters int
}

func (d *deltaIgnorer) AfterIteration(s IterState) IterAction {
	for j, v := range d.buf {
		if !math.IsNaN(v) {
			d.t.Fatalf("iteration %d: delta[%d] = %v was computed, but nothing read it", s.Iter, j, v)
		}
	}
	d.iters++
	return IterAction{}
}

func testDeltaOnceMatchesPerIteration[F tensor.Float](t *testing.T) {
	cfg := Config{LocalIters: 3, BatchSize: 4, LR: 0.05, WeightDecay: 1e-4, BaseIterTime: 0.1, AggregateFraction: 1}
	ds := benchData("cnn", 32)
	global := benchModel[float64]("cnn").FlatParams()
	run := func(ctrl Controller) Update {
		w := newTrainWorkerOf(benchModel[F]("cnn"), &deltaPool{}, nil)
		if ig, ok := ctrl.(*deltaIgnorer); ok {
			// The round takes its update vector from the worker's pool.
			ig.buf = make([]float64, len(global))
			for j := range ig.buf {
				ig.buf[j] = math.NaN()
			}
			w.pool.put(ig.buf)
		}
		u := w.run(roundInput{c: roundClient(ds, cfg.BatchSize), ctrl: ctrl, global: global, cfg: &cfg, plan: RoundPlan{Deadline: math.Inf(1)}})
		if ig, ok := ctrl.(*deltaIgnorer); ok && &u.Delta[0] != &ig.buf[0] {
			t.Fatal("the round did not upload the vector it took from the pool")
		}
		return u
	}
	once := run(NopController{})
	ignorer := &deltaIgnorer{t: t}
	watcher := &deltaWatcher{t: t}
	for _, ctrl := range []Controller{ignorer, watcher} {
		got := run(ctrl)
		if len(once.Delta) == 0 || len(once.Delta) != len(got.Delta) {
			t.Fatalf("%T: delta lengths %d and %d", ctrl, len(once.Delta), len(got.Delta))
		}
		for i := range once.Delta {
			if math.Float64bits(once.Delta[i]) != math.Float64bits(got.Delta[i]) {
				t.Fatalf("%T: delta[%d] is %v, NopController's %v", ctrl, i, got.Delta[i], once.Delta[i])
			}
		}
		if once.TrainLoss != got.TrainLoss || once.UploadBytes != got.UploadBytes || once.CompletionTime != got.CompletionTime {
			t.Fatalf("%T: updates differ: %+v vs %+v", ctrl, got, once)
		}
	}
	if ignorer.iters != cfg.LocalIters || len(watcher.norms) != cfg.LocalIters {
		t.Fatalf("AfterIteration ran %d and %d times, want %d", ignorer.iters, len(watcher.norms), cfg.LocalIters)
	}
	// The reader saw a delta that kept moving, and its last view is the
	// uploaded one.
	final := 0.0
	for _, v := range once.Delta {
		final += v * v
	}
	for i, n := range watcher.norms {
		if n == 0 || (i > 0 && n == watcher.norms[i-1]) {
			t.Fatalf("the delta read in AfterIteration did not move: squared norms %v", watcher.norms)
		}
	}
	if watcher.norms[len(watcher.norms)-1] != final {
		t.Fatalf("last delta read has squared norm %v, the uploaded one %v", watcher.norms[len(watcher.norms)-1], final)
	}
}

// TestDeltaOnceMatchesPerIteration: the runner computes the accumulated
// update only when something reads it. The exact NopController, an embedder
// that never reads it (the runner then computes it once, for the upload) and
// a controller that reads it after every iteration upload the same bits.
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
