package experiments

import (
	"testing"

	"fedca/internal/execpool"
)

// TestTableDeclaresEveryCell: once a registry row's cells are prefetched,
// rendering the experiment computes no further cell. A cell the row omits
// would compute here, serially, inside the renderer. Each experiment starts
// from an empty executor, so no other row's cells can stand in for its own.
func TestTableDeclaresEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	t.Cleanup(func() { Configure(execpool.Options{}) })
	s := micro()
	const seed = 21
	for _, id := range IDs() {
		Configure(execpool.Options{Workers: 1})
		if err := prefetch(s, seed, registry[id].cells); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		before := ExecStats().Computed
		if _, err := Run(id, s, seed); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := ExecStats().Computed - before; n != 0 {
			t.Fatalf("%s computed %d cells its registry row does not declare", id, n)
		}
	}
}

// TestBadNamesFailCleanly: an unknown scheme or model is an error from the
// cell, never a panic, and the error is not memoized or persisted, so asking
// again fails again, also from the pool's workers on the parallel prefetch
// path.
func TestBadNamesFailCleanly(t *testing.T) {
	t.Cleanup(func() { Configure(execpool.Options{}) })
	Configure(execpool.Options{Workers: 2, CacheDir: t.TempDir()})
	s := micro()
	bad := []cellSpec{
		conv("cnn", "nope"),
		conv("nope", "fedavg"),
		curves("nope"),
	}
	for _, c := range bad {
		if _, _, err := runCell(s, 1, c); err == nil {
			t.Fatalf("runCell(%s/%s) returned no error", c.model, c.scheme)
		}
		for i := 0; i < 2; i++ {
			if err := prefetch(s, 1, []cellSpec{c}); err == nil {
				t.Fatalf("cell %s/%s, call %d: no error", c.model, c.scheme, i)
			}
		}
	}
	if err := prefetch(s, 1, bad); err == nil {
		t.Fatal("parallel prefetch of bad cells returned no error")
	}
	if st := ExecStats(); st.Computed != 0 || st.MemHits != 0 || st.DiskWrites != 0 {
		t.Fatalf("a failed cell was kept: %+v", st)
	}
	if _, err := Run("nope", s, 1); err == nil {
		t.Fatal("Run of an unknown experiment returned no error")
	}
}
