package execpool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fedca/internal/telemetry"
)

func TestDoMemoizesPerSpec(t *testing.T) {
	p := New(Options{Workers: 1, Version: "v1"})
	var calls atomic.Int64
	compute := func() (int, error) { calls.Add(1); return 7, nil }
	for i := 0; i < 5; i++ {
		if got, err := Do(p, "a", compute); got != 7 || err != nil {
			t.Fatalf("Do = %d, %v", got, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("computed %d times", calls.Load())
	}
	// A different key is a different cell.
	Do(p, "b", compute)
	if calls.Load() != 2 {
		t.Fatalf("second cell not computed (calls=%d)", calls.Load())
	}
	st := p.Stats()
	if st.Computed != 2 || st.MemHits != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilPoolComputesDirectly(t *testing.T) {
	var calls int
	for i := 0; i < 3; i++ {
		Do(nil, "a", func() (int, error) { calls++; return calls, nil })
	}
	if calls != 3 {
		t.Fatalf("nil pool must not memoize (calls=%d)", calls)
	}
	var p *Pool
	p.Reset()
	p.Prefetch(func() {})
	if p.Stats() != (Stats{}) {
		t.Fatal("nil pool accessors must be inert")
	}
}

func TestSingleflightDedup(t *testing.T) {
	p := New(Options{Workers: 4, Version: "v1"})
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]int, waiters)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		i := i
		go func() {
			defer wg.Done()
			results[i], _ = Do(p, "slow", func() (int, error) {
				close(started)
				<-release
				calls.Add(1)
				return 42, nil
			})
		}()
	}
	<-started
	// Hold the flight open until every other goroutine has joined it (the
	// waiter counter increments before blocking); releasing earlier would let
	// late arrivals find the memoized value instead of the flight.
	for p.Stats().DedupWaits != waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("computed %d times; want singleflight", calls.Load())
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("waiter %d got %d", i, r)
		}
	}
	if st := p.Stats(); st.DedupWaits == 0 {
		t.Fatalf("no dedup waits recorded: %+v", st)
	}
}

func TestTokenBudgetBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(Options{Workers: workers, Version: "v1"})
	var cur, peak atomic.Int64
	var fns []func()
	for i := 0; i < 24; i++ {
		i := i
		fns = append(fns, func() {
			Do(p, fmt.Sprint(i), func() (int, error) {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				defer cur.Add(-1)
				return i, nil
			})
		})
	}
	p.Prefetch(fns...)
	if peak.Load() > workers {
		t.Fatalf("peak concurrency %d exceeds budget %d", peak.Load(), workers)
	}
	if st := p.Stats(); st.Computed != 24 || st.Inflight != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSerialPrefetchPreservesOrder(t *testing.T) {
	p := New(Options{Workers: 1, Version: "v1"})
	var order []int
	var fns []func()
	for i := 0; i < 5; i++ {
		i := i
		fns = append(fns, func() {
			Do(p, fmt.Sprint(i), func() (int, error) { order = append(order, i); return i, nil })
		})
	}
	p.Prefetch(fns...)
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestPanicPropagatesToAllWaiters(t *testing.T) {
	p := New(Options{Workers: 2, Version: "v1"})
	gate := make(chan struct{})
	panics := make(chan any, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			defer func() { panics <- recover() }()
			Do(p, "boom", func() (int, error) {
				<-gate
				panic("cell exploded")
			})
		}()
	}
	close(gate)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if r := <-panics; r != "cell exploded" {
			t.Fatalf("recovered %v", r)
		}
	}
	// The failed flight must not be memoized: the next request recomputes.
	got, _ := Do(p, "boom", func() (int, error) { return 9, nil })
	if got != 9 {
		t.Fatalf("recompute after panic = %d", got)
	}
}

// TestErrorIsNotMemoized: a failed cell returns its error, leaves no memory
// or disk entry behind, and the next request computes again.
func TestErrorIsNotMemoized(t *testing.T) {
	p := New(Options{Workers: 1, CacheDir: t.TempDir(), Version: "v1"})
	key := "bad"
	var calls int
	fail := func() (int, error) { calls++; return 0, errors.New("bad cell") }
	for i := 0; i < 2; i++ {
		if _, err := Do(p, key, fail); err == nil || err.Error() != "bad cell" {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if calls != 2 {
		t.Fatalf("computed %d times; an error must not be memoized", calls)
	}
	if st := p.Stats(); st.Computed != 0 || st.MemHits != 0 || st.DiskWrites != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got, err := Do(p, key, func() (int, error) { return 3, nil }); got != 3 || err != nil {
		t.Fatalf("recompute after error = %d, %v", got, err)
	}
}

func TestFingerprintSeparatesVersionsKeys(t *testing.T) {
	a := New(Options{Workers: 1, Version: "v1"})
	b := New(Options{Workers: 1, Version: "v2"})
	key := "cnn/42"
	if a.fingerprint(key) == b.fingerprint(key) {
		t.Fatal("version must change the fingerprint")
	}
	if a.fingerprint("x") == a.fingerprint("y") {
		t.Fatal("key must change the fingerprint")
	}
	// The separator prevents version/key concatenation ambiguity.
	ab, abc := New(Options{Workers: 1, Version: "ab"}), New(Options{Workers: 1, Version: "a"})
	if ab.fingerprint("c") == abc.fingerprint("bc") {
		t.Fatal("version/key boundary must be unambiguous")
	}
	if len(a.fingerprint(key)) != 64 {
		t.Fatal("fingerprint must be sha256 hex")
	}
}

func TestResetDropsMemoryNotDisk(t *testing.T) {
	dir := t.TempDir()
	p := New(Options{Workers: 1, CacheDir: dir, Version: "v1"})
	var calls int
	key := "a"
	Do(p, key, func() (int, error) { calls++; return 1, nil })
	p.Reset()
	Do(p, key, func() (int, error) { calls++; return 1, nil })
	if calls != 1 {
		t.Fatalf("reset must keep the disk entry warm (calls=%d)", calls)
	}
	if st := p.Stats(); st.DiskHits != 1 || st.DiskWrites != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTelemetryMirror(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	p := New(Options{Workers: 2, CacheDir: dir, Version: "v1", Metrics: reg})
	key := "a"
	one := func() (int, error) { return 1, nil }
	Do(p, key, one) // computed + disk write
	Do(p, key, one) // mem hit
	p.Reset()
	Do(p, key, one) // disk hit
	want := map[string]float64{
		"fedca_execpool_computed_total":    1,
		"fedca_execpool_disk_writes_total": 1,
		"fedca_execpool_inflight":          0,
	}
	byTier := map[string]float64{}
	for _, m := range reg.Snapshot() {
		if m.Name == "fedca_execpool_hits_total" {
			byTier[m.Labels["tier"]] = m.Value
			continue
		}
		if v, ok := want[m.Name]; ok && m.Value != v {
			t.Fatalf("%s = %v, want %v", m.Name, m.Value, v)
		}
	}
	if byTier["memory"] != 1 || byTier["disk"] != 1 {
		t.Fatalf("hit tiers = %v", byTier)
	}
	// Stats reads the same counters the registry exports.
	if st := p.Stats(); st != (Stats{Computed: 1, MemHits: 1, DiskHits: 1, DiskWrites: 1}) {
		t.Fatalf("stats = %+v, want the registry's counts", st)
	}
}
