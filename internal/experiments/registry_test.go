package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"fedca/internal/core"
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
		if _, err := runCell(s, 1, c); err == nil {
			t.Fatalf("runCell(%s) returned no error", c.spec)
		}
		for i := 0; i < 2; i++ {
			if err := prefetch(s, 1, []cellSpec{c}); err == nil {
				t.Fatalf("cell %s, call %d: no error", c.spec, i)
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

// TestCellsAreTheirSpecs: every distinct registry cell's result is
// Options.NewRun of its spec — the run fedca-sim -spec replays — round for
// round and in its scheme's stats; the curve probe, which records and never
// acts, is the FedAvg run of its spec. A cell's address is its spec's
// canonical text plus its rounds, and carries nothing else.
func TestCellsAreTheirSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	s.Rounds = 3
	const seed = 17
	seen := make(map[string]bool)
	for _, id := range IDs() {
		for _, c := range registry[id].cells {
			addr, err := c.address(s, seed)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, c.name, err)
			}
			if seen[addr] {
				continue
			}
			seen[addr] = true
			o, err := c.options(s, seed)
			if err != nil {
				t.Fatal(err)
			}
			suffix := fmt.Sprintf(" rounds=%d", s.Rounds)
			if c.probe {
				suffix = fmt.Sprintf(" early=%d late=%d window=%d", s.EarlyRound, s.LateRound, s.Window)
			}
			if want := o.String() + suffix; addr != want {
				t.Errorf("%s/%s: address %q, want its spec and rounds %q", id, c.name, addr, want)
			}
			run, err := runCell(s, seed, c)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, c.name, err)
			}
			runner, err := o.NewRun()
			if err != nil {
				t.Fatalf("%s/%s: %v", id, c.name, err)
			}
			for i, want := range run.Results {
				if got := runner.RunRound(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s round %d differs from its spec's run:\ncell: %+v\nspec: %+v", id, c.name, i, want, got)
				}
			}
			if _, fedca := runner.Scheme.(*core.Scheme); fedca != (run.Stats != nil) {
				t.Fatalf("%s/%s: scheme %s, cell stats %v", id, c.name, o.Scheme, run.Stats)
			}
			if run.Stats != nil {
				if st := runner.Stats(); !reflect.DeepEqual(st, *run.Stats) {
					t.Fatalf("%s/%s: scheme stats differ: cell %+v, spec %+v", id, c.name, *run.Stats, st)
				}
			}
		}
	}
	t.Logf("%d distinct cells", len(seen))
}
