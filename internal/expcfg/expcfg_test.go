package expcfg

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

func TestNewModelPerWorkload(t *testing.T) {
	r := rng.New(1)
	for _, name := range []string{"cnn", "lstm", "wrn"} {
		w, _ := ByName(name)
		m := w.NewModel(r.Fork(name))
		// The first parameter tells the LSTM from the convolutional
		// networks, and the WRN's output batch norm tells it from the CNN.
		first, bnOut := m.Params()[0].Name, false
		for _, p := range m.Params() {
			bnOut = bnOut || strings.HasPrefix(p.Name, "bn_out.")
		}
		if (first == "rnn.weight_ih_l0") != (name == "lstm") || bnOut != (name == "wrn") {
			t.Fatalf("workload %q built a model whose first parameter is %q (output batch norm %v)", name, first, bnOut)
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
	w.FL.LocalIters, w.FL.BatchSize = 5, 8
	w.TrainN, w.TestN = 256, 64
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
	setBytes := func(n int) int64 { return int64(n) * int64(4*tb.Test.Dim()+8) } // float32 rows and labels
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

// dtypeBuild is what a testbed of one dtype holds of its data.
type dtypeBuild struct {
	train, test *data.Dataset // train is nil where the testbed does not hold it
	clients     []*fl.Client
}

// dtypeBuilds are the two ways to build a testbed, each returning its data.
func dtypeBuilds(t *testing.T) []struct {
	name  string
	build func(w Workload) dtypeBuild
} {
	return []struct {
		name  string
		build func(w Workload) dtypeBuild
	}{
		{"Build", func(w Workload) dtypeBuild {
			tb := Build(w, 10, trace.PaperConfig(), 5)
			return dtypeBuild{test: tb.Test, clients: tb.Clients}
		}},
		{"BuildFleet", func(w Workload) dtypeBuild {
			tb, err := BuildFleet(w, 1000, 0, trace.PaperConfig(), 5)
			if err != nil {
				t.Fatal(err)
			}
			c, err := tb.Fleet.Materialize(7)
			if err != nil {
				t.Fatal(err)
			}
			return dtypeBuild{train: tb.Fleet.train, test: tb.Test, clients: []*fl.Client{c}}
		}},
	}
}

// exactFloat32 fails t unless ds's features take exactly 4 bytes each, so no
// float64 copy of them exists.
func exactFloat32(t *testing.T, what string, ds *data.Dataset) {
	t.Helper()
	if got, want := len(ds.X.Data())*int(unsafe.Sizeof(ds.X.Data()[0])), 4*ds.N()*ds.Dim(); got != want {
		t.Fatalf("%s: features take %d B, want 4·N·dim = %d B", what, got, want)
	}
}

// TestF32TestbedHoldsNoFloat64TrainingSet: at either dtype, Build and
// BuildFleet hold training and test sets of exactly 4 bytes per feature, so
// no float64 copy of either exists, and beyond the two sets they keep and
// allocate less than half the training rows.
func TestF32TestbedHoldsNoFloat64TrainingSet(t *testing.T) {
	for _, b := range dtypeBuilds(t) {
		for _, dt := range []string{"f64", "f32"} {
			w := CNN()
			w.FL.DType = dt
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			tb := b.build(w)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			exactFloat32(t, b.name+" "+dt+" test set", tb.test)
			if tb.train != nil {
				exactFloat32(t, b.name+" "+dt+" training set", tb.train)
			}
			dim := int64(tb.test.Dim())
			train := int64(w.TrainN) * (4*dim + 8) // rows and labels
			sets := train + int64(w.TestN)*(4*dim+8)
			live := int64(after.HeapAlloc) - int64(before.HeapAlloc) - sets
			allocated := int64(after.TotalAlloc-before.TotalAlloc) - sets
			t.Logf("%s %s: training set %d B; beyond both sets %d B live, %d B allocated", b.name, dt, train, live, allocated)
			if live > train/2 || allocated > train/2 {
				t.Fatalf("%s %s: %d B live and %d B allocated beyond the sets, bound %d B: a wider copy was built", b.name, dt, live, allocated, train/2)
			}
		}
	}
}

// TestTestbedDataIndependentOfDType: a run's data does not depend on its
// dtype. Build and BuildFleet of one spec at f64 and at f32 hold
// bit-identical training and test sets, each exactly 4 bytes per feature, and
// a float64 batch of a client is the float32 batch of the same client at f32
// widened, row for row.
func TestTestbedDataIndependentOfDType(t *testing.T) {
	sameSet := func(what string, a, b *data.Dataset) {
		t.Helper()
		if !reflect.DeepEqual(a.Y, b.Y) || !reflect.DeepEqual(a.X.Shape(), b.X.Shape()) {
			t.Fatalf("%s: labels or shape differ between f64 and f32", what)
		}
		for i, v := range a.X.Data() {
			if math.Float32bits(v) != math.Float32bits(b.X.Data()[i]) {
				t.Fatalf("%s: feature %d is %v at f64, %v at f32", what, i, v, b.X.Data()[i])
			}
		}
	}
	for _, b := range dtypeBuilds(t) {
		var at [2]dtypeBuild
		for k, dt := range []string{"f64", "f32"} {
			w := CNN()
			w.FL.DType = dt
			at[k] = b.build(w)
			exactFloat32(t, b.name+" "+dt+" test set", at[k].test)
			if at[k].train != nil {
				exactFloat32(t, b.name+" "+dt+" training set", at[k].train)
			}
		}
		wide, narrow := at[0], at[1]
		sameSet(b.name+" test set", wide.test, narrow.test)
		if wide.train != nil {
			sameSet(b.name+" training set", wide.train, narrow.train)
		}
		for i, cw := range wide.clients {
			lw, ln := cw.Loader, narrow.clients[i].Loader
			n := lw.BatchSize() * lw.Dim()
			x64, x32 := make([]float64, n), make([]float32, n)
			y64, y32 := make([]int, lw.BatchSize()), make([]int, lw.BatchSize())
			for it := 0; it < 3; it++ {
				data.NextInto(lw, x64, y64)
				data.NextInto(ln, x32, y32)
				if !reflect.DeepEqual(y64, y32) {
					t.Fatalf("%s client %d iter %d: labels %v at f64, %v at f32", b.name, i, it, y64, y32)
				}
				for k, v := range x32 {
					if x64[k] != float64(v) {
						t.Fatalf("%s client %d iter %d: x[%d] = %v at f64, want the widened %v", b.name, i, it, k, x64[k], v)
					}
				}
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
	w.FL.LocalIters, w.FL.BatchSize = 5, 8
	w.TrainN, w.TestN = 256, 64
	tb := Build(w, 4, trace.Config{}, 4)
	if tb.Test.Dim() != w.Seq.SeqLen*w.Seq.FeatDim {
		t.Fatalf("test dim = %d", tb.Test.Dim())
	}
	net := tb.Nets.New64()
	if net.NumParams() == 0 {
		t.Fatal("no params")
	}
}
