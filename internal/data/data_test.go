package data

import (
	"math"
	"testing"

	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// SyntheticImages draws templates and samples from the same RNG: the
// one-shot form of NewImageGenerator + Generate.
func SyntheticImages(spec ImageSpec, n int, r *rng.RNG) *Dataset {
	return NewImageGenerator(spec, r.Fork("gen")).Generate(n, r)
}

// SyntheticSequences is SyntheticImages for NewSeqGenerator.
func SyntheticSequences(spec SeqSpec, n int, r *rng.RNG) *Dataset {
	return NewSeqGenerator(spec, r.Fork("gen")).Generate(n, r)
}

// ClassHistogram returns the per-class sample counts of the given indices.
func ClassHistogram(labels []int, idx []int, classes int) []int {
	h := make([]int, classes)
	for _, i := range idx {
		h[labels[i]]++
	}
	return h
}

// IterationsPerEpoch returns how many batches one pass over the data yields.
func (l *Loader) IterationsPerEpoch() int { return len(l.view) / l.batchSize }

// allRows returns the view of every row of ds: a loader over it reads the
// dataset as a whole.
func allRows(ds *Dataset) []int {
	rows := make([]int, ds.N())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestSyntheticImagesShape(t *testing.T) {
	ds := SyntheticImages(ImageSpec{Classes: 4, Channels: 2, Height: 8, Width: 8, Noise: 0.5}, 40, rng.New(1))
	if ds.N() != 40 || ds.Dim() != 128 {
		t.Fatalf("got n=%d dim=%d", ds.N(), ds.Dim())
	}
	// Balanced classes.
	h := make([]int, 4)
	for _, y := range ds.Y {
		h[y]++
	}
	for c, n := range h {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10", c, n)
		}
	}
}

func TestSyntheticImagesSeparable(t *testing.T) {
	// Nearest-template classification should beat chance by a wide margin at
	// moderate noise, proving class signal exists.
	r := rng.New(2)
	spec := ImageSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Noise: 0.5}
	ds := SyntheticImages(spec, 200, r)
	// Recover templates as per-class means.
	dim := ds.Dim()
	means := make([][]float64, spec.Classes)
	counts := make([]int, spec.Classes)
	for c := range means {
		means[c] = make([]float64, dim)
	}
	xd := ds.X.Data()
	for i, y := range ds.Y {
		counts[y]++
		for j := 0; j < dim; j++ {
			means[y][j] += float64(xd[i*dim+j])
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, y := range ds.Y {
		best, bestD := -1, math.Inf(1)
		for c := range means {
			d := 0.0
			for j := 0; j < dim; j++ {
				diff := float64(xd[i*dim+j]) - means[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.N()); acc < 0.7 {
		t.Fatalf("nearest-mean accuracy = %v, want > 0.7 (data must carry class signal)", acc)
	}
}

func TestGeneratorSharedTemplates(t *testing.T) {
	// Two splits from the same generator must share class structure: the
	// per-class means of the splits should be strongly correlated.
	spec := ImageSpec{Classes: 3, Channels: 1, Height: 6, Width: 6, Noise: 0.3}
	g := NewImageGenerator(spec, rng.New(20))
	a := g.Generate(90, rng.New(21))
	b := g.Generate(90, rng.New(22))
	dim := a.Dim()
	meanOf := func(ds *Dataset, class int) []float64 {
		m := make([]float64, dim)
		n := 0
		for i, y := range ds.Y {
			if y != class {
				continue
			}
			n++
			for j := 0; j < dim; j++ {
				m[j] += float64(ds.X.Data()[i*dim+j])
			}
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	for c := 0; c < 3; c++ {
		ma, mb := meanOf(a, c), meanOf(b, c)
		var dot, na, nb float64
		for j := 0; j < dim; j++ {
			dot += ma[j] * mb[j]
			na += ma[j] * ma[j]
			nb += mb[j] * mb[j]
		}
		if cos := dot / math.Sqrt(na*nb); cos < 0.8 {
			t.Fatalf("class %d split means cosine = %v, want > 0.8", c, cos)
		}
	}
}

func TestSyntheticSequencesShape(t *testing.T) {
	ds := SyntheticSequences(SeqSpec{Classes: 5, SeqLen: 10, FeatDim: 4, Noise: 0.3}, 50, rng.New(3))
	if ds.N() != 50 || ds.Dim() != 40 {
		t.Fatalf("got n=%d dim=%d", ds.N(), ds.Dim())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := SyntheticImages(ImageSpec{Classes: 3, Channels: 1, Height: 4, Width: 4}, 12, rng.New(9))
	b := SyntheticImages(ImageSpec{Classes: 3, Channels: 1, Height: 4, Width: 4}, 12, rng.New(9))
	for i := range a.X.Data() {
		if a.X.Data()[i] != b.X.Data()[i] {
			t.Fatal("same seed must give identical data")
		}
	}
}

func TestDirichletPartitionCoversAll(t *testing.T) {
	r := rng.New(4)
	labels := make([]int, 1000)
	for i := range labels {
		labels[i] = i % 10
	}
	parts := DirichletPartition(labels, 8, 0.1, 5, r)
	if len(parts) != 8 {
		t.Fatalf("got %d parts, want 8", len(parts))
	}
	seen := make(map[int]bool)
	total := 0
	for _, p := range parts {
		if len(p) < 5 {
			t.Fatalf("client has %d < 5 samples", len(p))
		}
		total += len(p)
		for _, i := range p {
			if seen[i] {
				t.Fatalf("sample %d assigned twice", i)
			}
			seen[i] = true
		}
	}
	if total != 1000 {
		t.Fatalf("partition covers %d samples, want 1000", total)
	}
}

func TestDirichletPartitionSkew(t *testing.T) {
	// α=0.1 must produce strong label skew; α=100 near-uniform.
	labels := make([]int, 2000)
	for i := range labels {
		labels[i] = i % 10
	}
	skew := func(alpha float64) float64 {
		parts := DirichletPartition(labels, 10, alpha, 1, rng.New(5))
		// Mean (over clients) of the max class share.
		tot := 0.0
		for _, p := range parts {
			h := ClassHistogram(labels, p, 10)
			m, s := 0, 0
			for _, n := range h {
				s += n
				if n > m {
					m = n
				}
			}
			tot += float64(m) / float64(s)
		}
		return tot / 10
	}
	if lo, hi := skew(100), skew(0.1); hi < 2*lo || hi < 0.4 {
		t.Fatalf("α=0.1 skew %v should far exceed α=100 skew %v", hi, lo)
	}
}

func TestClassHistogram(t *testing.T) {
	labels := []int{0, 1, 1, 2, 2, 2}
	h := ClassHistogram(labels, []int{1, 2, 3}, 3)
	if h[0] != 0 || h[1] != 2 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestLoaderBatches(t *testing.T) {
	ds := SyntheticImages(ImageSpec{Classes: 2, Channels: 1, Height: 4, Width: 4}, 10, rng.New(7))
	l := NewViewLoader(ds, allRows(ds), 4, rng.New(8))
	if l.IterationsPerEpoch() != 2 {
		t.Fatalf("iters/epoch = %d, want 2", l.IterationsPerEpoch())
	}
	x, y := make([]float64, 4*ds.Dim()), make([]int, 4)
	seen := 0
	for it := 0; it < 10; it++ {
		NextInto(l, x, y) // a batch of any other shape panics
		seen += 4
	}
	if seen != 40 {
		t.Fatalf("saw %d samples", seen)
	}
}

func TestLoaderClampsBatchSize(t *testing.T) {
	ds := SyntheticImages(ImageSpec{Classes: 2, Channels: 1, Height: 4, Width: 4}, 3, rng.New(9))
	l := NewViewLoader(ds, allRows(ds), 50, rng.New(10))
	if l.BatchSize() != 3 {
		t.Fatalf("clamped batch = %d, want 3", l.BatchSize())
	}
	NextInto(l, make([]float64, 3*ds.Dim()), make([]int, 3))
}

func TestLoaderEpochCoverage(t *testing.T) {
	// Within one epoch every sample appears exactly once.
	ds := SyntheticImages(ImageSpec{Classes: 2, Channels: 1, Height: 4, Width: 4}, 8, rng.New(11))
	// Tag rows via first feature so we can identify them.
	for i := 0; i < 8; i++ {
		ds.X.Data()[i*ds.Dim()] = float32(i)
	}
	l := NewViewLoader(ds, allRows(ds), 2, rng.New(12))
	dim := ds.Dim()
	x, y := make([]float64, 2*dim), make([]int, 2)
	seen := make(map[int]int)
	for it := 0; it < 4; it++ {
		NextInto(l, x, y)
		for b := 0; b < 2; b++ {
			seen[int(x[b*dim])]++
		}
	}
	for i := 0; i < 8; i++ {
		if seen[i] != 1 {
			t.Fatalf("sample %d seen %d times in one epoch", i, seen[i])
		}
	}
}

// End-to-end sanity: a small CNN must learn synthetic images well above
// chance, validating that the substitution for CIFAR is trainable.
func TestCNNTrainsOnSyntheticImages(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	r := rng.New(13)
	const n = 256
	spec := ImageSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Noise: 0.7}
	gen := NewImageGenerator(spec, r.Fork("templates"))
	train := gen.Generate(n, r.Fork("train", 0))
	test := gen.Generate(n, r.Fork("test", 0))
	net := nn.NewNetworkOf[float64](
		nn.NewDenseOf[float64]("fc1", 64, 32, r), nn.NewReLUOf[float64](32),
		nn.NewDenseOf[float64]("fc2", 32, 4, r),
	)
	opt := nn.NewSGDOf[float64](0.1, 0, 0)
	l := NewViewLoader(train, allRows(train), 32, r.Fork("loader", 0))
	x, y := tensor.New(32, train.Dim()), make([]int, 32)
	for it := 0; it < 200; it++ {
		NextInto(l, x.Data(), y)
		net.ZeroGrad()
		logits := net.Forward(x, true)
		d := tensor.New(logits.Dim(0), logits.Dim(1))
		nn.SoftmaxCrossEntropyInto(logits, y, d)
		net.Backward(d)
		opt.Step(net.Params())
	}
	x = tensor.New(test.N(), test.Dim())
	for i, v := range test.X.Data() {
		x.Data()[i] = float64(v)
	}
	logits := net.Forward(x, false)
	correct := 0
	for i, y := range test.Y {
		if logits.ArgMaxRow(i) == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(test.N()); acc < 0.6 {
		t.Fatalf("test accuracy = %v, want > 0.6", acc)
	}
}
