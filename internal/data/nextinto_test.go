package data

import (
	"math"
	"testing"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// TestNextIntoFollowsEpochOrder pins what NextInto loads against an explicit
// row reference: an epoch is rng.Perm of the loader's RNG (the reshuffle
// consumes exactly its draws), batches take that order's rows in turn, and a
// batch that would run past the epoch's end starts a new permutation — so
// batches straddle reshuffles here (25 % 7 != 0).
func TestNextIntoFollowsEpochOrder(t *testing.T) {
	spec := ImageSpec{Classes: 3, Channels: 1, Height: 6, Width: 6, Noise: 1}
	gen := NewImageGenerator(spec, rng.New(40))
	ds := gen.Generate(25, rng.New(41))

	const batch = 7
	l := NewViewLoader(ds, allRows(ds), batch, rng.New(42))
	ref := rng.New(42)
	order, cursor := ref.Perm(ds.N()), 0
	dim := ds.Dim()
	x := make([]float64, batch*dim)
	y := make([]int, batch)
	sd := ds.X.Data()
	for it := 0; it < 12; it++ {
		NextInto(l, x, y)
		if cursor+batch > len(order) {
			order, cursor = ref.Perm(ds.N()), 0
		}
		for i := 0; i < batch; i++ {
			j := order[cursor+i]
			if y[i] != ds.Y[j] {
				t.Fatalf("iter %d: label %d = %d, want row %d's %d", it, i, y[i], j, ds.Y[j])
			}
			for k := 0; k < dim; k++ {
				if x[i*dim+k] != float64(sd[j*dim+k]) {
					t.Fatalf("iter %d: x[%d][%d] = %v, want row %d's %v", it, i, k, x[i*dim+k], j, sd[j*dim+k])
				}
			}
		}
		cursor += batch
	}
}

// generator is what ImageGenerator and SeqGenerator share.
type generator interface {
	sampler
	Generate(n int, r *rng.RNG) *Dataset
}

// generators are the two synthetic tasks, their templates drawn from seed.
var generators = []struct {
	name string
	new  func(seed uint64) generator
}{
	{"image", func(seed uint64) generator {
		return NewImageGenerator(ImageSpec{Classes: 4, Channels: 2, Height: 4, Width: 4, Noise: 1}, rng.New(seed))
	}},
	{"seq", func(seed uint64) generator {
		return NewSeqGenerator(SeqSpec{Classes: 4, SeqLen: 5, FeatDim: 3, Noise: 0.8}, rng.New(seed))
	}},
}

// TestGenerateRoundsEachDraw: per generator and seed, the stored features are
// the element-wise float32 of the float64 draws the sampler makes from the
// same RNG, row after row, and sample i has class i mod classes.
func TestGenerateRoundsEachDraw(t *testing.T) {
	for _, g := range generators {
		for _, seed := range []uint64{1, 7, 42} {
			gen := g.new(seed)
			ds := gen.Generate(30, rng.New(seed+100))
			classes, dim := gen.shape()
			if ds.N() != 30 || ds.Dim() != dim {
				t.Fatalf("%s seed %d: shape %dx%d, want 30x%d", g.name, seed, ds.N(), ds.Dim(), dim)
			}
			r, row := rng.New(seed+100), make([]float64, dim)
			xd := ds.X.Data()
			for i, y := range ds.Y {
				if y != i%classes {
					t.Fatalf("%s seed %d: label %d = %d, want %d", g.name, seed, i, y, i%classes)
				}
				gen.sample(row, y, r)
				for k, v := range row {
					if xd[i*dim+k] != float32(v) {
						t.Fatalf("%s seed %d: x[%d][%d] = %v, want float32(%v)", g.name, seed, i, k, xd[i*dim+k], v)
					}
				}
			}
		}
	}
}

// TestNextIntoFloat32Narrows pins the mixed-precision input contract: from
// the same loader state, the float32 batch holds the stored values and the
// float64 batch holds them widened, with identical labels, so the float32
// batch is the element-wise rounding of the float64 one. It holds across
// reshuffles (an epoch of 30 rows is four batches of 7), for a plain and a
// view loader, for both generators.
func TestNextIntoFloat32Narrows(t *testing.T) {
	view := []int{1, 2, 3, 5, 8, 13, 21, 29, 0, 4, 6, 9, 11}
	for _, g := range generators {
		ds := g.new(3).Generate(30, rng.New(4))
		for _, tc := range []struct {
			name   string
			loader func() *Loader
		}{
			{"plain", func() *Loader { return NewViewLoader(ds, allRows(ds), 7, rng.New(5)) }},
			{"view", func() *Loader { return NewViewLoader(ds, view, 4, rng.New(5)) }},
		} {
			la, lb := tc.loader(), tc.loader()
			batch := la.BatchSize()
			x64, x32 := make([]float64, batch*ds.Dim()), make([]float32, batch*ds.Dim())
			y64, y32 := make([]int, batch), make([]int, batch)
			for it := 0; it < 4*la.IterationsPerEpoch()+1; it++ { // ≥ 3 reshuffles
				NextInto(la, x64, y64)
				NextInto(lb, x32, y32)
				for i := range y64 {
					if y32[i] != y64[i] {
						t.Fatalf("%s/%s iter %d: label %d = %d, want %d", g.name, tc.name, it, i, y32[i], y64[i])
					}
				}
				for i := range x64 {
					if float64(x32[i]) != x64[i] || x32[i] != float32(x64[i]) {
						t.Fatalf("%s/%s iter %d: x32[%d] = %v, x64[%d] = %v", g.name, tc.name, it, i, x32[i], i, x64[i])
					}
				}
			}
		}
	}
}

// TestNextIntoFloat32FromEitherStorage: a float32 batch is the same whether
// the loader reads a client's rows through a view of the shared base storage
// or from a dataset holding its own copy of those rows, across reshuffles (a
// view of 13 rows is three batches of 4 an epoch), for both generators.
func TestNextIntoFloat32FromEitherStorage(t *testing.T) {
	view := []int{1, 2, 3, 5, 8, 13, 21, 29, 0, 4, 6, 9, 11}
	for _, g := range generators {
		base := g.new(3).Generate(30, rng.New(4))
		dim := base.Dim()
		own := &Dataset{X: tensor.NewOf[float32](len(view), dim), Y: make([]int, len(view))}
		for i, j := range view {
			copy(own.X.Data()[i*dim:(i+1)*dim], base.X.Data()[j*dim:(j+1)*dim])
			own.Y[i] = base.Y[j]
		}
		la, lb := NewViewLoader(base, view, 4, rng.New(5)), NewViewLoader(own, allRows(own), 4, rng.New(5))
		n := la.BatchSize() * dim
		xa, xb := make([]float32, n), make([]float32, n)
		ya, yb := make([]int, la.BatchSize()), make([]int, la.BatchSize())
		for it := 0; it < 4*la.IterationsPerEpoch()+1; it++ { // ≥ 3 reshuffles
			NextInto(la, xa, ya)
			NextInto(lb, xb, yb)
			for i := range ya {
				if ya[i] != yb[i] {
					t.Fatalf("%s iter %d: label %d = %d through the view, %d from the copy", g.name, it, i, ya[i], yb[i])
				}
			}
			for i := range xa {
				if math.Float32bits(xa[i]) != math.Float32bits(xb[i]) {
					t.Fatalf("%s iter %d: x[%d] = %v through the view, %v from the copy", g.name, it, i, xa[i], xb[i])
				}
			}
		}
	}
}

// TestNextIntoSizeChecks pins the destination-size panics.
func TestNextIntoSizeChecks(t *testing.T) {
	spec := ImageSpec{Classes: 2, Channels: 1, Height: 4, Width: 4, Noise: 1}
	ds := NewImageGenerator(spec, rng.New(1)).Generate(8, rng.New(2))
	l := NewViewLoader(ds, allRows(ds), 4, rng.New(3))
	for _, tc := range []struct {
		name   string
		nx, ny int
	}{
		{"short-x", 4*ds.Dim() - 1, 4},
		{"short-y", 4 * ds.Dim(), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("undersized destination must panic")
				}
			}()
			NextInto(l, make([]float64, tc.nx), make([]int, tc.ny))
		})
	}
}
