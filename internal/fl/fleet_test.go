package fl_test

import (
	"testing"

	"fedca/internal/fl"
	"fedca/internal/rng"
)

// TestStaticFleet: the static adapter preserves the classic testbed
// contract — client i resolvable as id i, an id outside [0, Size) an
// error, recycle a no-op, and a member whose id is not its index rejected.
func TestStaticFleet(t *testing.T) {
	seq := []*fl.Client{{ID: 0}, {ID: 1}, {ID: 2}}
	f := fl.NewStaticFleet(seq)
	if f.Size() != 3 {
		t.Fatalf("size %d != 3", f.Size())
	}
	for _, c := range seq {
		got, err := f.Materialize(c.ID)
		if err != nil || got != c {
			t.Fatalf("materialize %d: %v %v", c.ID, got, err)
		}
		f.Recycle(got) // no-op: the same pointer must resolve again
		if again, _ := f.Materialize(c.ID); again != c {
			t.Fatalf("client %d lost after recycle", c.ID)
		}
	}
	for _, id := range []int{-1, 3} {
		if _, err := f.Materialize(id); err == nil {
			t.Fatalf("unknown id %d accepted", id)
		}
	}

	for _, clients := range [][]*fl.Client{{{ID: 7}, {ID: 99}}, {{ID: 0}, {ID: 0}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ids %d, %d did not panic", clients[0].ID, clients[1].ID)
				}
			}()
			fl.NewStaticFleet(clients)
		}()
	}
}

// TestSampleOrdinals: Floyd's sampler must return k distinct in-range
// ordinals, sorted ascending, deterministically per (seed, n, k), clamped
// at the population size, and reusing dst/seen without cross-call bleed.
func TestSampleOrdinals(t *testing.T) {
	seen := make(map[int]bool)
	r1 := rng.New(9)
	a := fl.SampleOrdinals(r1.Fork("cohort", 0), 1_000_000, 100, nil, seen)
	if len(a) != 100 {
		t.Fatalf("sampled %d, want 100", len(a))
	}
	uniq := map[int]bool{}
	for i, v := range a {
		if v < 0 || v >= 1_000_000 {
			t.Fatalf("ordinal %d out of range", v)
		}
		if uniq[v] {
			t.Fatalf("duplicate ordinal %d", v)
		}
		uniq[v] = true
		if i > 0 && a[i-1] >= v {
			t.Fatalf("not ascending at %d: %d >= %d", i, a[i-1], v)
		}
	}

	// Same fork, same draw; different round label, different draw.
	b := fl.SampleOrdinals(rng.New(9).Fork("cohort", 0), 1_000_000, 100, nil, make(map[int]bool))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at %d", i)
		}
	}
	c := fl.SampleOrdinals(rng.New(9).Fork("cohort", 1), 1_000_000, 100, a[:0], seen)
	same := true
	for i := range b {
		if b[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("round 0 and round 1 drew identical cohorts")
	}

	// k > n clamps to the whole population.
	all := fl.SampleOrdinals(rng.New(9).Fork("x"), 5, 50, nil, seen)
	if len(all) != 5 {
		t.Fatalf("clamped sample has %d ordinals, want 5", len(all))
	}
}
