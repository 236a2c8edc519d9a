package expcfg

import (
	"reflect"
	"runtime"
	"testing"

	"fedca/internal/data"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

func TestWorkloadDefaults(t *testing.T) {
	for _, name := range []string{"cnn", "lstm", "wrn"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != name {
			t.Fatalf("name = %q", w.Name)
		}
		// Paper Sec. 5.1: K=125, batch 50, 90% aggregation.
		if w.FL.LocalIters != 125 || w.FL.BatchSize != 50 || w.FL.AggregateFraction != 0.9 {
			t.Fatalf("%s: paper hyperparameters wrong: %+v", name, w.FL)
		}
		if w.Alpha != 0.1 {
			t.Fatalf("%s: Dirichlet α = %v", name, w.Alpha)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPaperLearningRates(t *testing.T) {
	// lr 0.01/0.05/0.1 and weight decay 0.01/0.01/0.0005.
	cnn, lstm, wrn := CNN(), LSTM(), WRN()
	if cnn.FL.LR != 0.01 || lstm.FL.LR != 0.05 || wrn.FL.LR != 0.1 {
		t.Fatal("learning rates do not match paper Sec. 5.1")
	}
	if cnn.FL.WeightDecay != 0.01 || lstm.FL.WeightDecay != 0.01 || wrn.FL.WeightDecay != 0.0005 {
		t.Fatal("weight decays do not match paper Sec. 5.1")
	}
}

func TestWRNEmulatesPaperModelBytes(t *testing.T) {
	if WRN().FL.ModelBytes != 139.4e6 {
		t.Fatal("WRN must emulate the 139.4 MB WRN-28-10 transfer size")
	}
}

func TestShrink(t *testing.T) {
	w := CNN().Shrink(10, 100, 50, 5)
	if w.FL.LocalIters != 10 || w.TrainN != 100 || w.TestN != 50 || w.FL.BatchSize != 5 {
		t.Fatalf("shrink wrong: %+v", w)
	}
}

func TestNewModelPerWorkload(t *testing.T) {
	r := rng.New(1)
	for _, name := range []string{"cnn", "lstm", "wrn"} {
		w, _ := ByName(name)
		m := w.NewModel(r.Fork(name))
		if m.Name != name {
			t.Fatalf("model name %q for workload %q", m.Name, name)
		}
		if m.NumParams() == 0 {
			t.Fatal("empty model")
		}
	}
}

func buildTiny(t *testing.T, seed uint64) *Testbed {
	t.Helper()
	w := CNN()
	w.Img.Height, w.Img.Width, w.Img.Classes = 8, 8, 4
	w = w.Shrink(5, 256, 64, 8)
	return Build(w, 4, trace.PaperConfig(), seed)
}

// shard returns the training-set rows a client's loader reads: the view it
// was built over. It reads the unexported field rather than widen data's
// surface for a test.
func shard(c *fl.Client) []int {
	v := reflect.ValueOf(c.Loader).Elem().FieldByName("view")
	rows := make([]int, v.Len())
	for i := range rows {
		rows[i] = int(v.Index(i).Int())
	}
	return rows
}

func TestBuildTestbed(t *testing.T) {
	tb := buildTiny(t, 1)
	if len(tb.Clients) != 4 {
		t.Fatalf("clients = %d", len(tb.Clients))
	}
	total := 0
	for i, c := range tb.Clients {
		if c.ID != i {
			t.Fatalf("client %d has ID %d", i, c.ID)
		}
		if c.Speed == nil || c.Up == nil || c.Down == nil || c.Loader == nil {
			t.Fatal("client missing equipment")
		}
		n := len(shard(c))
		if n < tb.Workload.FL.BatchSize {
			t.Fatalf("client %d has %d samples < batch", i, n)
		}
		if c.Weight != float64(n) {
			t.Fatal("weight must equal sample count")
		}
		total += n
	}
	if total != tb.Workload.TrainN {
		t.Fatalf("partition covers %d of %d samples", total, tb.Workload.TrainN)
	}
	if tb.Test.N() != tb.Workload.TestN {
		t.Fatalf("test set = %d", tb.Test.N())
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := buildTiny(t, 2), buildTiny(t, 2)
	fa, fb := a.Nets.New64(), b.Nets.New64()
	pa, pb := fa.FlatParams(), fb.FlatParams()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("factory models differ across identical builds")
		}
	}
	for i := range a.Clients {
		if !reflect.DeepEqual(shard(a.Clients[i]), shard(b.Clients[i])) {
			t.Fatal("partitions differ across identical builds")
		}
		if a.Clients[i].Speed.Static != b.Clients[i].Speed.Static {
			t.Fatal("speeds differ across identical builds")
		}
	}
}

// TestStaticTestbedHoldsTrainingSetOnce: static clients read their rows from
// the one training set, so building a testbed allocates the training and test
// sets once each and keeps exactly those alive — per-client copies of the
// rows would double the training set, in the build and, were the set kept
// too, in the live heap.
func TestStaticTestbedHoldsTrainingSetOnce(t *testing.T) {
	w := CNN()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	tb := Build(w, 10, trace.PaperConfig(), 5)
	runtime.GC()
	runtime.GC() // as in TestVirtualFleetHeapIndependentOfFleetSize
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tb)
	setBytes := func(n int) int64 { return int64(n) * int64(8*tb.Test.Dim()+8) } // rows and labels
	train, sets := setBytes(w.TrainN), setBytes(w.TrainN)+setBytes(w.TestN)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc) - sets
	built := int64(after.TotalAlloc-before.TotalAlloc) - sets
	t.Logf("training set %d B, test set %d B; beyond them: %d B live, %d B allocated by Build", train, sets-train, live, built)
	if live > train/2 {
		t.Fatalf("a built testbed holds %d B beyond its training and test sets: the training rows are held twice", live)
	}
	if built > train/2 {
		t.Fatalf("Build allocated %d B beyond the training and test sets: the training rows were copied", built)
	}
}

// TestF32TestbedHoldsNoFloat64TrainingSet: an f32 run's training set is
// generated straight into float32 storage, so neither Build nor BuildFleet
// allocates a float64 training matrix, let alone keeps one; beyond the
// float32 rows and the float64 test set they hold and allocate less than
// half the float32 rows. The f64 testbeds are held to the same bound at
// 8-byte rows, as before.
func TestF32TestbedHoldsNoFloat64TrainingSet(t *testing.T) {
	builds := []struct {
		name  string
		build func(w Workload) (any, *data.Dataset)
	}{
		{"Build", func(w Workload) (any, *data.Dataset) {
			tb := Build(w, 10, trace.PaperConfig(), 5)
			return tb, tb.Test
		}},
		{"BuildFleet", func(w Workload) (any, *data.Dataset) {
			tb, err := BuildFleet(w, 1000, 0, trace.PaperConfig(), 5)
			if err != nil {
				t.Fatal(err)
			}
			if f32 := w.FL.DType == "f32"; (tb.Fleet.train.X32 != nil) != f32 || (tb.Fleet.train.X != nil) == f32 {
				t.Fatalf("dtype %q: the fleet's training set has X %v, X32 %v", w.FL.DType, tb.Fleet.train.X != nil, tb.Fleet.train.X32 != nil)
			}
			return tb, tb.Test
		}},
	}
	for _, b := range builds {
		for _, dt := range []string{"f64", "f32"} {
			w := CNN()
			w.FL.DType = dt
			elem := int64(8)
			if dt == "f32" {
				elem = 4
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			tb, test := b.build(w)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(tb)
			if test.X == nil || test.X32 != nil {
				t.Fatalf("%s %s: the test set must stay float64", b.name, dt)
			}
			dim := int64(test.Dim())
			train := int64(w.TrainN) * (elem*dim + 8) // rows and labels
			sets := train + int64(w.TestN)*(8*dim+8)
			live := int64(after.HeapAlloc) - int64(before.HeapAlloc) - sets
			built := int64(after.TotalAlloc-before.TotalAlloc) - sets
			t.Logf("%s %s: training set %d B; beyond both sets %d B live, %d B allocated", b.name, dt, train, live, built)
			if live > train/2 || built > train/2 {
				t.Fatalf("%s %s: %d B live and %d B allocated beyond the sets, bound %d B: a wider training matrix was built", b.name, dt, live, built, train/2)
			}
		}
	}
}

func TestFactoryModelsIdentical(t *testing.T) {
	tb := buildTiny(t, 3)
	a, b := tb.Nets.New64(), tb.Nets.New64()
	pa, pb := a.FlatParams(), b.FlatParams()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("factory must return identically initialized models")
		}
	}
}

func TestLSTMTestbed(t *testing.T) {
	w := LSTM()
	w.Seq.SeqLen, w.Seq.Hidden, w.Seq.Classes = 6, 8, 4
	w = w.Shrink(5, 256, 64, 8)
	tb := Build(w, 4, trace.Config{}, 4)
	if tb.Test.Dim() != w.Seq.SeqLen*w.Seq.FeatDim {
		t.Fatalf("test dim = %d", tb.Test.Dim())
	}
	net := tb.Nets.New64()
	if net.NumParams() == 0 {
		t.Fatal("no params")
	}
}
