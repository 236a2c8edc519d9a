package experiments

import (
	"reflect"
	"testing"

	"fedca/internal/execpool"
)

// goldenIDs are the experiments the determinism contract is asserted over:
// they share convergence cells (Fig. 7 ∩ Table 1 ∩ Fig. 9 reuse the
// fedavg/fedca runs), so they exercise dedup, parallel fan-out and the disk
// cache together.
var goldenIDs = []string{"fig7", "table1", "fig9"}

func runGolden(t *testing.T, s Scale, seed uint64) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result, len(goldenIDs))
	for _, id := range goldenIDs {
		res, err := Run(id, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = res
	}
	return out
}

func compareResults(t *testing.T, label string, want, got map[string]*Result) {
	t.Helper()
	for _, id := range goldenIDs {
		w, g := want[id], got[id]
		if g.Text != w.Text {
			t.Fatalf("%s: %s rendered text diverges from the serial path:\n--- serial ---\n%s\n--- %s ---\n%s",
				label, id, w.Text, label, g.Text)
		}
		if !reflect.DeepEqual(g.Values, w.Values) {
			t.Fatalf("%s: %s Values diverge:\nserial: %v\n%s: %v", label, id, w.Values, label, g.Values)
		}
		if !reflect.DeepEqual(g.Series, w.Series) {
			t.Fatalf("%s: %s Series diverge", label, id)
		}
	}
}

// TestGoldenExecutorDeterminism is the correctness bar of the cell executor:
// for a fixed seed, experiments.Run under the parallel executor — any worker
// count, cache cold or warm — must yield Result values byte-identical to the
// serial reference path. Each cell forks its own RNG from the seed in its
// key, so scheduling order cannot leak into the arithmetic.
func TestGoldenExecutorDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	const seed = 11
	t.Cleanup(func() { Configure(execpool.Options{}) })

	// Serial reference: one worker, no cache, submission order preserved.
	Configure(execpool.Options{Workers: 1})
	want := runGolden(t, s, seed)
	serialStats := ExecStats()
	if serialStats.Computed == 0 {
		t.Fatal("serial pass computed nothing")
	}

	// Parallel, cold disk cache: same Results, cells persisted.
	dir := t.TempDir()
	Configure(execpool.Options{Workers: 4, CacheDir: dir})
	cold := runGolden(t, s, seed)
	compareResults(t, "parallel-cold", want, cold)
	coldStats := ExecStats()
	if coldStats.Computed != serialStats.Computed {
		t.Fatalf("parallel pass computed %d cells, serial %d — dedup broken",
			coldStats.Computed, serialStats.Computed)
	}
	if coldStats.DiskWrites == 0 {
		t.Fatal("cold pass persisted nothing")
	}

	// Fresh executor over the warm cache: decode only, still identical.
	Configure(execpool.Options{Workers: 2, CacheDir: dir})
	warm := runGolden(t, s, seed)
	compareResults(t, "parallel-warm", want, warm)
	warmStats := ExecStats()
	if warmStats.Computed != 0 {
		t.Fatalf("warm pass recomputed %d cells", warmStats.Computed)
	}
	if warmStats.DiskHits == 0 {
		t.Fatal("warm pass hit nothing")
	}
}

// TestConfigureVersionIsolation: entries written under one cache version must
// be invisible — not wrong — under another.
func TestConfigureVersionIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	dir := t.TempDir()
	t.Cleanup(func() { Configure(execpool.Options{}) })

	Configure(execpool.Options{Workers: 1, CacheDir: dir, Version: "test-vA"})
	a := mustConv(t, s, 13, conv("cnn", "fedavg"))

	Configure(execpool.Options{Workers: 1, CacheDir: dir, Version: "test-vB"})
	b := mustConv(t, s, 13, conv("cnn", "fedavg"))
	if st := ExecStats(); st.DiskHits != 0 || st.Computed != 1 {
		t.Fatalf("version B must recompute, stats = %+v", st)
	}
	// Determinism across versions: same cell, same arithmetic.
	if len(a.Results) != len(b.Results) || a.Results[len(a.Results)-1].End != b.Results[len(b.Results)-1].End {
		t.Fatal("recomputed run diverged")
	}
}
