package rng

import "testing"

func TestShuffleIsPermutation(t *testing.T) {
	r := New(20)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 8)
	for _, v := range xs {
		if seen[v] {
			t.Fatal("shuffle duplicated an element")
		}
		seen[v] = true
	}
}

func TestForkLabelTypes(t *testing.T) {
	m := New(21)
	// Every supported label type must work and be distinguishable.
	a := m.Fork("x", int64(1)).Uint64()
	b := m.Fork("x", uint64(1)).Uint64()
	c := m.Fork("x", 1.5).Uint64()
	if a == c || b == c {
		t.Fatal("label types collide improbably")
	}
	// Same value, same type → same stream.
	if m.Fork("x", 1.5).Uint64() != c {
		t.Fatal("float64 label not deterministic")
	}
}

func TestDistributionPanics(t *testing.T) {
	r := New(22)
	for _, f := range []func(){
		func() { r.Gamma(0, 1) },
		func() { r.Gamma(1, 0) },
		func() { r.Dirichlet(0, make([]float64, 2)) },
		func() { r.Sample(3, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSampleFullRange(t *testing.T) {
	s := New(23).Sample(5, 5)
	seen := make([]bool, 5)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Sample(5,5) missing %d", i)
		}
	}
}
