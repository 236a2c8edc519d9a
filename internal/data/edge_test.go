package data

import (
	"math"
	"testing"
	"testing/quick"

	"fedca/internal/rng"
)

func TestPartitionImpossibleMinPanics(t *testing.T) {
	labels := make([]int, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: 10 samples cannot give 4 clients 5 each")
		}
	}()
	DirichletPartition(labels, 4, 0.1, 5, rng.New(1))
}

func TestPartitionZeroClientsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DirichletPartition([]int{0, 1}, 0, 0.1, 1, rng.New(1))
}

func TestPartitionSingleClientGetsAll(t *testing.T) {
	labels := []int{0, 1, 2, 0, 1, 2}
	parts := DirichletPartition(labels, 1, 0.1, 1, rng.New(2))
	if len(parts) != 1 || len(parts[0]) != 6 {
		t.Fatalf("parts = %v", parts)
	}
}

// Property: for any α and client count (within sane bounds), the partition
// is exact (covers all samples once) and respects the minimum.
func TestPartitionProperty(t *testing.T) {
	f := func(seed uint64, nClients, nClasses uint8) bool {
		clients := 1 + int(nClients)%8
		classes := 1 + int(nClasses)%6
		n := 40 * clients
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i % classes
		}
		parts := DirichletPartition(labels, clients, 0.1, 4, rng.New(seed))
		seen := make([]bool, n)
		total := 0
		for _, p := range parts {
			if len(p) < 4 {
				return false
			}
			for _, i := range p {
				if seen[i] {
					return false
				}
				seen[i] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqGeneratorSharedTemplates(t *testing.T) {
	spec := SeqSpec{Classes: 3, SeqLen: 6, FeatDim: 4, Noise: 0.2}
	g := NewSeqGenerator(spec, rng.New(3))
	a := g.Generate(60, rng.New(4))
	b := g.Generate(60, rng.New(5))
	// Same class means across splits must correlate (shared templates).
	dim := a.Dim()
	for c := 0; c < 3; c++ {
		var dot, na, nb float64
		ma, mb := make([]float64, dim), make([]float64, dim)
		ca, cb := 0, 0
		for i, y := range a.Y {
			if y == c {
				ca++
				for j := 0; j < dim; j++ {
					ma[j] += float64(a.X.Data()[i*dim+j])
				}
			}
		}
		for i, y := range b.Y {
			if y == c {
				cb++
				for j := 0; j < dim; j++ {
					mb[j] += float64(b.X.Data()[i*dim+j])
				}
			}
		}
		for j := 0; j < dim; j++ {
			ma[j] /= float64(ca)
			mb[j] /= float64(cb)
			dot += ma[j] * mb[j]
			na += ma[j] * ma[j]
			nb += mb[j] * mb[j]
		}
		if cos := dot / (sqrtf(na) * sqrtf(nb)); cos < 0.7 {
			t.Fatalf("class %d split means cosine = %v", c, cos)
		}
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Sqrt(x)
}

func TestLoaderPanicsOnEmptyAndBadBatch(t *testing.T) {
	ds := SyntheticImages(ImageSpec{Classes: 2, Channels: 1, Height: 4, Width: 4, N: 4}, rng.New(6))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for batch 0")
			}
		}()
		NewViewLoader(ds, allRows(ds), 0, rng.New(7))
	}()
	empty := &Dataset{X: ds.X, Y: nil}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty dataset")
		}
	}()
	NewViewLoader(empty, allRows(empty), 2, rng.New(8))
}
