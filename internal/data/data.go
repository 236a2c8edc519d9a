// Package data generates the synthetic workload datasets of the FedCA
// reproduction and partitions them across clients with the Dirichlet non-IID
// scheme the paper uses (concentration α = 0.1).
//
// The paper uses CIFAR-10, CIFAR-100 and the KWS speech-commands dataset.
// Those are not available offline, and the phenomena FedCA exploits —
// diminishing intra-round statistical progress, per-layer convergence spread,
// client heterogeneity via class skew — derive from non-IID label
// distributions and SGD dynamics, not from photographic content. The
// generators below produce class-conditional data that is genuinely learnable
// by the corresponding models: each class has a smooth random template and
// samples are noisy instances of it (images) or noisy time-warped instances
// (sequences, mimicking spectrogram frames of spoken keywords).
//
// A dataset's features are stored in float32, the precision of the paper's
// CIFAR and KWS input tensors: every feature is drawn in float64 and rounded
// once. A float32 batch reads the stored values as they are, a float64 batch
// widens them exactly, so runs of either dtype see the same inputs.
package data

import (
	"fmt"
	"math"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// Dataset is a labelled design matrix of N rows and dim features in
// float32, Y holding the class ids.
type Dataset struct {
	X *tensor.TensorOf[float32]
	Y []int
}

// N returns the number of samples.
func (d *Dataset) N() int { return len(d.Y) }

// Dim returns the per-sample feature count.
func (d *Dataset) Dim() int { return d.X.Dim(1) }

// sampler is a synthetic task's per-sample draw: sample fills row with one
// sample of class c from r.
type sampler interface {
	sample(row []float64, c int, r *rng.RNG)
	shape() (classes, dim int)
}

// generate draws n samples of s: sample i belongs to class i mod classes
// (balanced classes). Every feature is drawn in float64 and stored rounded
// once to float32.
func generate(s sampler, n int, r *rng.RNG) *Dataset {
	classes, dim := s.shape()
	x := tensor.NewOf[float32](n, dim)
	y := make([]int, n)
	xd := x.Data()
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		y[i] = i % classes
		s.sample(row, y[i], r)
		dst := xd[i*dim : (i+1)*dim]
		for j, v := range row {
			dst[j] = float32(v)
		}
	}
	return &Dataset{X: x, Y: y}
}

// ImageSpec configures an ImageGenerator.
type ImageSpec struct {
	Classes, Channels, Height, Width int
	N                                int     // total samples
	Noise                            float64 // per-pixel Gaussian noise stddev
}

// ImageGenerator holds the fixed class templates of a synthetic image task;
// Generate draws independent noisy samples from them, so train and test
// splits generated from the same ImageGenerator share the class structure.
type ImageGenerator struct {
	Spec      ImageSpec
	templates [][]float64
}

// NewImageGenerator draws the class templates: each class is a smooth random
// field (low-frequency, unit contrast), so nearby pixels are correlated as in
// natural images and convolutions are the right inductive bias.
func NewImageGenerator(spec ImageSpec, r *rng.RNG) *ImageGenerator {
	if spec.Noise <= 0 {
		spec.Noise = 1.0
	}
	g := &ImageGenerator{Spec: spec, templates: make([][]float64, spec.Classes)}
	for c := range g.templates {
		g.templates[c] = smoothField(spec.Channels, spec.Height, spec.Width, r.Fork("template", c))
	}
	return g
}

// Generate draws n samples: sample i belongs to class i mod Classes and is
// its class template plus white noise.
func (g *ImageGenerator) Generate(n int, r *rng.RNG) *Dataset { return generate(g, n, r) }

func (g *ImageGenerator) shape() (classes, dim int) {
	return g.Spec.Classes, g.Spec.Channels * g.Spec.Height * g.Spec.Width
}

func (g *ImageGenerator) sample(row []float64, c int, r *rng.RNG) {
	t := g.templates[c]
	for j := range row {
		row[j] = t[j] + r.Normal(0, g.Spec.Noise)
	}
}

// smoothField draws a random per-channel field and box-blurs it twice, giving
// a low-frequency class template with unit-scale contrast.
func smoothField(c, h, w int, r *rng.RNG) []float64 {
	f := make([]float64, c*h*w)
	for i := range f {
		f[i] = r.Normal(0, 1)
	}
	for pass := 0; pass < 2; pass++ {
		blurred := make([]float64, len(f))
		for ch := 0; ch < c; ch++ {
			base := ch * h * w
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					sum, cnt := 0.0, 0
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							ny, nx := y+dy, x+dx
							if ny < 0 || ny >= h || nx < 0 || nx >= w {
								continue
							}
							sum += f[base+ny*w+nx]
							cnt++
						}
					}
					blurred[base+y*w+x] = sum / float64(cnt)
				}
			}
		}
		f = blurred
	}
	// Rescale to roughly unit contrast so Noise is a meaningful SNR knob.
	var sumSq float64
	for _, v := range f {
		sumSq += v * v
	}
	rms := math.Sqrt(sumSq / float64(len(f)))
	if rms == 0 {
		rms = 1
	}
	for i := range f {
		f[i] /= rms
	}
	return f
}

// SeqSpec configures a SeqGenerator.
type SeqSpec struct {
	Classes, SeqLen, FeatDim int
	N                        int
	Noise                    float64
}

// SeqGenerator holds the fixed class templates of a synthetic sequence task,
// mimicking keyword spotting: each class is a random template sequence of
// feature frames (like MFCC frames of a spoken word).
type SeqGenerator struct {
	Spec      SeqSpec
	templates [][]float64
}

// NewSeqGenerator draws the per-class template sequences.
func NewSeqGenerator(spec SeqSpec, r *rng.RNG) *SeqGenerator {
	if spec.Noise <= 0 {
		spec.Noise = 0.5
	}
	dim := spec.SeqLen * spec.FeatDim
	g := &SeqGenerator{Spec: spec, templates: make([][]float64, spec.Classes)}
	for c := range g.templates {
		tr := r.Fork("seqtemplate", c)
		t := make([]float64, dim)
		for i := range t {
			t[i] = tr.Normal(0, 1)
		}
		g.templates[c] = t
	}
	return g
}

// Generate draws n samples; each adds frame noise and a small random cyclic
// temporal offset (alignment jitter), so the recurrent model must integrate
// over time to classify.
func (g *SeqGenerator) Generate(n int, r *rng.RNG) *Dataset { return generate(g, n, r) }

func (g *SeqGenerator) shape() (classes, dim int) {
	return g.Spec.Classes, g.Spec.SeqLen * g.Spec.FeatDim
}

func (g *SeqGenerator) sample(row []float64, c int, r *rng.RNG) {
	spec := g.Spec
	t := g.templates[c]
	// Random cyclic shift by up to ±1 frame emulates alignment jitter.
	shift := r.Intn(3) - 1
	for frame := 0; frame < spec.SeqLen; frame++ {
		src := ((frame+shift)%spec.SeqLen + spec.SeqLen) % spec.SeqLen
		for f := 0; f < spec.FeatDim; f++ {
			row[frame*spec.FeatDim+f] = t[src*spec.FeatDim+f] + r.Normal(0, spec.Noise)
		}
	}
}

// DirichletPartition splits sample indices across numClients clients with
// label skew: for every class, a Dirichlet(α) draw over clients decides what
// fraction of that class each client receives (the standard Hsu et al.
// construction; the paper sets α = 0.1). Every client is guaranteed at least
// minPerClient samples by re-drawing degenerate allocations.
func DirichletPartition(labels []int, numClients int, alpha float64, minPerClient int, r *rng.RNG) [][]int {
	if numClients <= 0 {
		panic("data: numClients must be positive")
	}
	classes := 0
	for _, y := range labels {
		if y >= classes {
			classes = y + 1
		}
	}
	byClass := make([][]int, classes)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	if minPerClient*numClients > len(labels) {
		panic(fmt.Sprintf("data: cannot give %d clients %d samples each from %d total", numClients, minPerClient, len(labels)))
	}
	parts := make([][]int, numClients)
	weights := make([]float64, numClients)
	for c := 0; c < classes; c++ {
		idx := byClass[c]
		r.Fork("shuffle", c).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		r.Fork("dir", c).Dirichlet(alpha, weights)
		// Convert weights to contiguous cut points over idx.
		start := 0
		acc := 0.0
		for k := 0; k < numClients; k++ {
			acc += weights[k]
			end := int(acc*float64(len(idx)) + 0.5)
			if k == numClients-1 {
				end = len(idx)
			}
			if end > len(idx) {
				end = len(idx)
			}
			if end > start {
				parts[k] = append(parts[k], idx[start:end]...)
			}
			start = end
		}
	}
	// Dirichlet draws at small α can starve clients entirely; rebalance by
	// moving samples from the currently largest shard until every client has
	// minPerClient. Deterministic and preserves the heavy skew elsewhere.
	for {
		minK, maxK := 0, 0
		for k := 1; k < numClients; k++ {
			if len(parts[k]) < len(parts[minK]) {
				minK = k
			}
			if len(parts[k]) > len(parts[maxK]) {
				maxK = k
			}
		}
		if len(parts[minK]) >= minPerClient {
			break
		}
		donor := parts[maxK]
		parts[maxK] = donor[:len(donor)-1]
		parts[minK] = append(parts[minK], donor[len(donor)-1])
	}
	return parts
}

// Loader cycles through a client's local dataset in mini-batches, reshuffling
// after each epoch with the client's own deterministic RNG — the local data
// pipeline of one FL client.
type Loader struct {
	ds        *Dataset
	view      []int // the client's rows are ds rows view[i]
	batchSize int
	order     []int
	cursor    int
	r         *rng.RNG
}

// NewViewLoader creates a loader over rows view of base without copying them
// — the data pipeline of a lazily materialized virtual client, whose shard
// is an index list into the shared base dataset (see LazyPartition). It
// panics on an empty view or non-positive batch size, and clamps a batch
// larger than the view to the view.
// The loader aliases view; callers recycling index buffers must not reuse
// one while its loader is live.
func NewViewLoader(base *Dataset, view []int, batchSize int, r *rng.RNG) *Loader {
	l := &Loader{}
	l.ResetView(base, view, batchSize, r)
	return l
}

// ResetView turns l into the loader NewViewLoader(base, view, batchSize, r)
// would build — the same batches from the same draws — keeping only the
// capacity of its shuffle order. A pooled virtual-fleet slot re-seats one
// loader for every client that occupies it this way, allocating nothing once
// the order has grown to the largest view.
func (l *Loader) ResetView(base *Dataset, view []int, batchSize int, r *rng.RNG) {
	if len(view) == 0 {
		panic("data: NewViewLoader on empty view")
	}
	if batchSize <= 0 {
		panic("data: batch size must be positive")
	}
	if batchSize > len(view) {
		batchSize = len(view)
	}
	*l = Loader{ds: base, view: view, batchSize: batchSize, order: l.order[:0], r: r}
	l.reshuffle()
}

// reshuffle redraws the epoch order in place. The identity fill + Fisher–
// Yates loop consumes exactly the RNG draws of rng.Perm, so switching to the
// in-place form changed no batch sequence; it only stopped allocating a fresh
// permutation every epoch (the steady-state training loop is allocation-free).
func (l *Loader) reshuffle() {
	n := len(l.view)
	if cap(l.order) < n {
		l.order = make([]int, n)
	}
	l.order = l.order[:n]
	for i := range l.order {
		l.order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := l.r.Intn(i + 1)
		l.order[i], l.order[j] = l.order[j], l.order[i]
	}
	l.cursor = 0
}

// BatchSize returns the effective batch size.
func (l *Loader) BatchSize() int { return l.batchSize }

// Dim returns the per-sample feature count of the underlying dataset.
func (l *Loader) Dim() int { return l.ds.Dim() }

// NextInto fills x (length BatchSize·Dim, typically arena-allocated) and y
// (length BatchSize) with the next mini-batch, wrapping (and reshuffling
// with the loader's own RNG) at epoch end. A float32 batch holds the stored
// values; a float64 batch holds them widened, which is exact, so a float64
// and a float32 batch of the same loader state hold the same numbers.
func NextInto[F tensor.Float](l *Loader, x []F, y []int) {
	if l.cursor+l.batchSize > len(l.order) {
		l.reshuffle()
	}
	dim := l.ds.Dim()
	if len(x) != l.batchSize*dim || len(y) != l.batchSize {
		panic(fmt.Sprintf("data: NextInto dst sized %d/%d, want %d/%d", len(x), len(y), l.batchSize*dim, l.batchSize))
	}
	src := l.ds.X.Data()
	for i := 0; i < l.batchSize; i++ {
		j := l.view[l.order[l.cursor+i]]
		row := src[j*dim : (j+1)*dim]
		dst := x[i*dim : (i+1)*dim]
		for k, v := range row {
			dst[k] = F(v)
		}
		y[i] = l.ds.Y[j]
	}
	l.cursor += l.batchSize
}

// String summarises the dataset for logs.
func (d *Dataset) String() string {
	return fmt.Sprintf("Dataset{n=%d dim=%d}", d.N(), d.Dim())
}
