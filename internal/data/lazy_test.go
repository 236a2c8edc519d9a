package data

import (
	"strings"
	"testing"

	"fedca/internal/rng"
)

func lazyLabels(n, classes int) []int {
	y := make([]int, n)
	for i := range y {
		y[i] = i % classes
	}
	return y
}

// TestLazyPartitionRejectsImpossibleSpecs: unlike DirichletPartition (which
// panics, a legacy contract pinned by edge_test.go), the lazy view returns
// errors for every impossible configuration.
func TestLazyPartitionRejectsImpossibleSpecs(t *testing.T) {
	labels := lazyLabels(100, 10)
	cases := []struct {
		name string
		lbl  []int
		spec PartitionSpec
		want string
	}{
		{"zero clients", labels, PartitionSpec{Clients: 0, Alpha: 0.1, PerClient: 10}, "positive client count"},
		{"negative clients", labels, PartitionSpec{Clients: -3, Alpha: 0.1, PerClient: 10}, "positive client count"},
		{"empty dataset", nil, PartitionSpec{Clients: 4, Alpha: 0.1, PerClient: 10}, "empty dataset"},
		{"zero shard", labels, PartitionSpec{Clients: 4, Alpha: 0.1, PerClient: 0}, "shard size"},
		{"impossible min", labels, PartitionSpec{Clients: 4, Alpha: 0.1, PerClient: 10, MinPerClient: 11}, "cannot give"},
		{"zero alpha", labels, PartitionSpec{Clients: 4, Alpha: 0, PerClient: 10}, "alpha"},
		{"nan alpha", labels, PartitionSpec{Clients: 4, Alpha: nan(), PerClient: 10}, "alpha"},
		{"negative label", []int{0, -1, 2}, PartitionSpec{Clients: 4, Alpha: 0.1, PerClient: 10}, "negative class label"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewLazyPartition(tc.lbl, tc.spec, rng.New(1))
			if err == nil {
				t.Fatalf("spec %+v accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// TestLazyPartitionDeterministicAndOrderIndependent: a client's shard is a
// pure function of (seed, id) — equal across independent partitions and
// unaffected by which other clients were materialized first.
func TestLazyPartitionDeterministicAndOrderIndependent(t *testing.T) {
	labels := lazyLabels(500, 10)
	spec := PartitionSpec{Clients: 1000, Alpha: 0.1, PerClient: 32, MinPerClient: 8}
	pa, err := NewLazyPartition(labels, spec, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewLazyPartition(labels, spec, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Warm pb with unrelated materializations in a different order.
	for _, id := range []int{999, 3, 500, 3} {
		if _, err := pb.ClientIndices(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{0, 42, 999, 42} {
		ia, err := pa.ClientIndices(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := pb.ClientIndices(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ia) != spec.PerClient || len(ib) != spec.PerClient {
			t.Fatalf("client %d: shard sizes %d/%d != %d", id, len(ia), len(ib), spec.PerClient)
		}
		for k := range ia {
			if ia[k] != ib[k] {
				t.Fatalf("client %d diverges at sample %d: %d != %d", id, k, ia[k], ib[k])
			}
			if ia[k] < 0 || ia[k] >= len(labels) {
				t.Fatalf("client %d sample %d: index %d outside dataset", id, k, ia[k])
			}
		}
	}
	if _, err := pa.ClientIndices(spec.Clients, nil); err == nil {
		t.Fatal("id outside the fleet accepted")
	}
	if _, err := pa.ClientIndices(-1, nil); err == nil {
		t.Fatal("negative id accepted")
	}
}

// TestLazyPartitionSkew: at α = 0.1 a client's shard must concentrate on few
// classes (the non-IID phenomenon the paper's construction exists for),
// while the fleet as a whole still touches every class.
func TestLazyPartitionSkew(t *testing.T) {
	labels := lazyLabels(1000, 10)
	p, err := NewLazyPartition(labels, PartitionSpec{Clients: 200, Alpha: 0.1, PerClient: 64}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	skewed := 0
	fleetHist := make([]int, 10)
	var buf []int
	for id := 0; id < 200; id++ {
		buf, err = p.ClientIndices(id, buf)
		if err != nil {
			t.Fatal(err)
		}
		hist := ClassHistogram(labels, buf, 10)
		top := 0
		for c, n := range hist {
			fleetHist[c] += n
			if n > hist[top] {
				top = c
			}
		}
		// A balanced shard would put 10% in the top class; call a client
		// skewed when its top class holds over half the shard.
		if float64(hist[top]) > 0.5*float64(len(buf)) {
			skewed++
		}
	}
	if skewed < 100 {
		t.Fatalf("only %d/200 clients are class-skewed at alpha=0.1", skewed)
	}
	for c, n := range fleetHist {
		if n == 0 {
			t.Fatalf("class %d never sampled across the fleet", c)
		}
	}
}

// TestViewLoader: batches drawn through an index view must contain only the
// view's rows with matching labels, and reuse must reshuffle like a loader over the whole dataset.
func TestViewLoader(t *testing.T) {
	base := SyntheticImages(ImageSpec{Classes: 4, Channels: 1, Height: 4, Width: 4}, 64, rng.New(3))
	view := []int{5, 9, 13, 17, 21, 25, 33}
	inView := map[int]bool{}
	for _, j := range view {
		inView[j] = true
	}
	l := NewViewLoader(base, view, 3, rng.New(4))
	if l.BatchSize() != 3 {
		t.Fatalf("batch size %d != 3", l.BatchSize())
	}
	if got := l.IterationsPerEpoch(); got != len(view)/3 {
		t.Fatalf("IterationsPerEpoch %d != %d", got, len(view)/3)
	}
	dim := base.Dim()
	bd := base.X.Data()
	xd, y := make([]float64, 3*dim), make([]int, 3)
	for it := 0; it < 10; it++ {
		NextInto(l, xd, y)
		for b := 0; b < 3; b++ {
			row := xd[b*dim : (b+1)*dim]
			// Find the base row this batch row copies; it must be in the view.
			found := -1
			for _, j := range view {
				match := true
				for k := range row {
					if row[k] != float64(bd[j*dim+k]) {
						match = false
						break
					}
				}
				if match && y[b] == base.Y[j] {
					found = j
					break
				}
			}
			if found < 0 || !inView[found] {
				t.Fatalf("iter %d row %d is not a view row", it, b)
			}
		}
	}

	// A view smaller than the batch clamps the batch to the view.
	small := NewViewLoader(base, view[:2], 8, rng.New(5))
	if small.BatchSize() != 2 {
		t.Fatalf("clamped batch size %d != 2", small.BatchSize())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("empty view did not panic")
		}
	}()
	NewViewLoader(base, nil, 3, rng.New(6))
}
