package data

import (
	"testing"

	"fedca/internal/rng"
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
	l := NewLoader(ds, batch, rng.New(42))
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
				if x[i*dim+k] != sd[j*dim+k] {
					t.Fatalf("iter %d: x[%d][%d] = %v, want row %d's %v", it, i, k, x[i*dim+k], j, sd[j*dim+k])
				}
			}
		}
		cursor += batch
	}
}

// TestNextIntoFloat32Narrows pins the mixed-precision input contract: the
// float32 batch is the element-wise rounding of the float64 batch the same
// loader state would produce, with identical labels.
func TestNextIntoFloat32Narrows(t *testing.T) {
	spec := ImageSpec{Classes: 3, Channels: 1, Height: 6, Width: 6, Noise: 1}
	gen := NewImageGenerator(spec, rng.New(40))
	ds := gen.Generate(20, rng.New(41))

	const batch = 5
	la := NewLoader(ds, batch, rng.New(43))
	lb := NewLoader(ds, batch, rng.New(43))
	dim := ds.Dim()
	x64 := make([]float64, batch*dim)
	x32 := make([]float32, batch*dim)
	y64 := make([]int, batch)
	y32 := make([]int, batch)
	for it := 0; it < 8; it++ {
		NextInto(la, x64, y64)
		NextInto(lb, x32, y32)
		for i := range y64 {
			if y32[i] != y64[i] {
				t.Fatalf("iter %d: label %d = %d, want %d", it, i, y32[i], y64[i])
			}
		}
		for i := range x64 {
			if x32[i] != float32(x64[i]) {
				t.Fatalf("iter %d: x32[%d] = %v, want float32(%v)", it, i, x32[i], x64[i])
			}
		}
	}
}

// generator is what ImageGenerator and SeqGenerator share.
type generator interface {
	Generate(n int, r *rng.RNG) *Dataset
	Generate32(n int, r *rng.RNG) *Dataset
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

// TestGenerate32RoundsGenerate: per generator and seed, float32 storage is
// the element-wise float32 of the float64 storage the same draws produce,
// with the same labels, and holds no float64 matrix.
func TestGenerate32RoundsGenerate(t *testing.T) {
	for _, g := range generators {
		for _, seed := range []uint64{1, 7, 42} {
			gen := g.new(seed)
			wide := gen.Generate(30, rng.New(seed+100))
			narrow := gen.Generate32(30, rng.New(seed+100))
			if narrow.X != nil || narrow.X32 == nil || wide.X32 != nil {
				t.Fatalf("%s seed %d: Generate32 must fill X32 only, Generate X only", g.name, seed)
			}
			if narrow.N() != wide.N() || narrow.Dim() != wide.Dim() {
				t.Fatalf("%s seed %d: shape %dx%d, want %dx%d", g.name, seed, narrow.N(), narrow.Dim(), wide.N(), wide.Dim())
			}
			for i, y := range wide.Y {
				if narrow.Y[i] != y {
					t.Fatalf("%s seed %d: label %d = %d, want %d", g.name, seed, i, narrow.Y[i], y)
				}
			}
			nd := narrow.X32.Data()
			for i, v := range wide.X.Data() {
				if nd[i] != float32(v) {
					t.Fatalf("%s seed %d: x32[%d] = %v, want float32(%v)", g.name, seed, i, nd[i], v)
				}
			}
		}
	}
}

// TestNextIntoFloat32FromEitherStorage: a float32 batch is the same whether
// the loader reads float64 storage and narrows it or reads float32 storage,
// across reshuffles (an epoch of 30 rows is four batches of 7), for a plain
// and a view loader.
func TestNextIntoFloat32FromEitherStorage(t *testing.T) {
	view := []int{1, 2, 3, 5, 8, 13, 21, 29, 0, 4, 6, 9, 11}
	for _, g := range generators {
		gen := g.new(3)
		wide := gen.Generate(30, rng.New(4))
		narrow := gen.Generate32(30, rng.New(4))
		for _, tc := range []struct {
			name   string
			loader func(ds *Dataset) *Loader
		}{
			{"plain", func(ds *Dataset) *Loader { return NewLoader(ds, 7, rng.New(5)) }},
			{"view", func(ds *Dataset) *Loader { return NewViewLoader(ds, view, 4, rng.New(5)) }},
		} {
			la, lb := tc.loader(wide), tc.loader(narrow)
			n := la.BatchSize() * wide.Dim()
			xa, xb := make([]float32, n), make([]float32, n)
			ya, yb := make([]int, la.BatchSize()), make([]int, la.BatchSize())
			for it := 0; it < 4*la.IterationsPerEpoch()+1; it++ { // ≥ 3 reshuffles
				NextInto(la, xa, ya)
				NextInto(lb, xb, yb)
				for i := range ya {
					if ya[i] != yb[i] {
						t.Fatalf("%s/%s iter %d: label %d = %d, want %d", g.name, tc.name, it, i, yb[i], ya[i])
					}
				}
				for i := range xa {
					if xa[i] != xb[i] {
						t.Fatalf("%s/%s iter %d: x[%d] = %v from float32 storage, %v from float64", g.name, tc.name, it, i, xb[i], xa[i])
					}
				}
			}
		}
	}
}

// TestNextIntoFloat64FromFloat32StoragePanics: widening values that were
// rounded at generation is a wiring bug, not a conversion.
func TestNextIntoFloat64FromFloat32StoragePanics(t *testing.T) {
	ds := generators[0].new(1).Generate32(8, rng.New(2))
	l := NewLoader(ds, 4, rng.New(3))
	defer func() {
		if recover() == nil {
			t.Fatal("a float64 batch from float32 storage must panic")
		}
	}()
	NextInto(l, make([]float64, 4*ds.Dim()), make([]int, 4))
}

// TestNextIntoSizeChecks pins the destination-size panics.
func TestNextIntoSizeChecks(t *testing.T) {
	spec := ImageSpec{Classes: 2, Channels: 1, Height: 4, Width: 4, Noise: 1}
	ds := NewImageGenerator(spec, rng.New(1)).Generate(8, rng.New(2))
	l := NewLoader(ds, 4, rng.New(3))
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
