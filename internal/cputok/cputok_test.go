package cputok

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestBorrowNeverExceedsCap(t *testing.T) {
	b := NewBudget(3)
	if got := b.Borrow(5); got != 3 {
		t.Fatalf("Borrow(5) on cap 3 = %d, want 3", got)
	}
	if got := b.Borrow(1); got != 0 {
		t.Fatalf("Borrow on exhausted budget = %d, want 0", got)
	}
	b.Return(2)
	if got := b.Borrow(5); got != 2 {
		t.Fatalf("Borrow after partial return = %d, want 2", got)
	}
	b.Return(3)
	if n := b.Inflight(); n != 0 {
		t.Fatalf("Inflight after full return = %d, want 0", n)
	}
}

func TestBorrowNonPositive(t *testing.T) {
	b := NewBudget(2)
	if got := b.Borrow(0); got != 0 {
		t.Fatalf("Borrow(0) = %d, want 0", got)
	}
	if got := b.Borrow(-3); got != 0 {
		t.Fatalf("Borrow(-3) = %d, want 0", got)
	}
	b.Return(0) // no-op, must not panic
}

func TestCover(t *testing.T) {
	b := NewBudget(1)
	if got := b.Cover(); got != 1 {
		t.Fatalf("Cover on a fresh budget = %d, want 1", got)
	}
	// Already covered, or under a holder of the only token: nothing more is
	// taken and nothing blocks.
	if got := b.Cover(); got != 0 {
		t.Fatalf("Cover on an exhausted budget = %d, want 0", got)
	}
	b.Return(0)
	b.Return(1)
	if n := b.Inflight(); n != 0 {
		t.Fatalf("Inflight after Return = %d, want 0", n)
	}
}

func TestAcquireBlocksUntilReturn(t *testing.T) {
	b := NewBudget(1)
	b.Acquire()
	acquired := make(chan struct{})
	go func() {
		b.Acquire()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second Acquire must block while the token is held")
	case <-time.After(20 * time.Millisecond):
	}
	b.Return(1)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Acquire did not wake after Return")
	}
	b.Return(1)
}

func TestSetCapWakesWaiters(t *testing.T) {
	b := NewBudget(1)
	b.Acquire()
	acquired := make(chan struct{})
	go func() {
		b.Acquire()
		close(acquired)
	}()
	b.SetCap(2)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("raising capacity did not admit the waiter")
	}
	b.Return(2)
}

func TestTracksGOMAXPROCS(t *testing.T) {
	b := NewBudget(0)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(1)
	if got := b.Cap(); got != 1 {
		t.Fatalf("Cap at GOMAXPROCS=1 = %d, want 1", got)
	}
	runtime.GOMAXPROCS(2)
	if got := b.Cap(); got != 2 {
		t.Fatalf("Cap at GOMAXPROCS=2 = %d, want 2", got)
	}
	// An explicit capacity overrides tracking; <= 0 restores it.
	b.SetCap(7)
	if got := b.Cap(); got != 7 {
		t.Fatalf("Cap after SetCap(7) = %d, want 7", got)
	}
	b.SetCap(0)
	if got := b.Cap(); got != 2 {
		t.Fatalf("Cap after SetCap(0) = %d, want GOMAXPROCS (2)", got)
	}
}

func TestMaxInflightWatermark(t *testing.T) {
	b := NewBudget(4)
	b.Borrow(3)
	b.Return(2)
	if got := b.MaxInflight(); got != 3 {
		t.Fatalf("MaxInflight = %d, want 3", got)
	}
	b.ResetMax()
	if got := b.MaxInflight(); got != 1 {
		t.Fatalf("MaxInflight after ResetMax = %d, want current in-flight 1", got)
	}
	b.Return(1)
}

func TestOverReturnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("returning more tokens than acquired must panic")
		}
	}()
	NewBudget(2).Return(1)
}

// TestConcurrentBorrowBound hammers the budget from many goroutines and
// asserts the invariant the whole design rests on: the number of tokens in
// flight never exceeds the capacity, under any interleaving.
func TestConcurrentBorrowBound(t *testing.T) {
	const cap = 3
	b := NewBudget(cap)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := b.Borrow(1 + (seed+i)%cap)
				if got := b.Inflight(); got > cap {
					t.Errorf("inflight %d exceeds cap %d", got, cap)
				}
				if n > 0 {
					runtime.Gosched()
					b.Return(n)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := b.MaxInflight(); got > cap {
		t.Fatalf("MaxInflight %d exceeds cap %d", got, cap)
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("tokens leaked: inflight = %d", got)
	}
}

func TestDefaultIsProcessWide(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return one process-wide budget")
	}
	if Default().Cap() < 1 {
		t.Fatalf("default budget capacity %d < 1", Default().Cap())
	}
}

// TestSetCapRacingTraffic shrinks and grows the capacity while Borrow,
// Return and Acquire traffic runs full tilt. The invariants under any
// interleaving: no deadlock (a watchdog guards the whole test), no token
// leak, and — because SetCap never revokes tokens already out — after
// shrinking to a final cap and draining, new admissions respect the new cap:
// the post-drain high-water mark never exceeds it.
func TestSetCapRacingTraffic(t *testing.T) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			panic("cputok: SetCap race test deadlocked")
		}
	}()
	defer close(done)

	const (
		maxCap  = 4
		workers = 6
		iters   = 300
	)
	b := NewBudget(maxCap)
	var wg sync.WaitGroup

	// Capacity churn: cycle through shrink-to-1 / grow / track-GOMAXPROCS.
	wg.Add(1)
	go func() {
		defer wg.Done()
		caps := []int{1, maxCap, 2, 0, 3, 1, maxCap}
		for i := 0; i < iters; i++ {
			b.SetCap(caps[i%len(caps)])
			if b.Setting() > maxCap {
				t.Error("Setting exceeds every cap ever set")
			}
			runtime.Gosched()
		}
		b.SetCap(maxCap)
	}()

	// Blocking top-level traffic (Acquire must always eventually admit).
	for w := 0; w < workers/2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b.Acquire()
				runtime.Gosched()
				b.Return(1)
			}
		}()
	}
	// Non-blocking nested traffic.
	for w := 0; w < workers/2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if n := b.Borrow(1 + (seed+i)%maxCap); n > 0 {
					runtime.Gosched()
					b.Return(n)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := b.Inflight(); got != 0 {
		t.Fatalf("tokens leaked through capacity churn: inflight = %d", got)
	}
	// Shrink to the final cap with the budget drained, then verify the new
	// bound holds for all subsequent admissions.
	const finalCap = 2
	b.SetCap(finalCap)
	b.ResetMax()
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func(seed int) {
			defer wg2.Done()
			for i := 0; i < iters; i++ {
				if seed%2 == 0 {
					b.Acquire()
					runtime.Gosched()
					b.Return(1)
				} else if n := b.Borrow(1 + i%maxCap); n > 0 {
					runtime.Gosched()
					b.Return(n)
				}
			}
		}(w)
	}
	wg2.Wait()
	if got := b.MaxInflight(); got > finalCap {
		t.Fatalf("post-drain MaxInflight %d exceeds shrunk cap %d", got, finalCap)
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("tokens leaked after drain: inflight = %d", got)
	}
}

// TestSetCapShrinkBelowInflight pins the shrink-never-revokes contract: with
// more tokens out than the new capacity, outstanding holders keep their
// tokens and Return cleanly; new admissions block (Acquire) or fail (Borrow,
// Cover)
// until the count drains below the new cap.
func TestSetCapShrinkBelowInflight(t *testing.T) {
	b := NewBudget(4)
	if got := b.Borrow(3); got != 3 {
		t.Fatalf("Borrow(3) = %d, want 3", got)
	}
	b.SetCap(1)
	if got := b.Cover(); got != 0 {
		t.Fatalf("Cover admitted %d tokens over a shrunk cap", got)
	}
	if got := b.Borrow(1); got != 0 {
		t.Fatalf("Borrow admitted %d tokens over a shrunk cap", got)
	}
	acquired := make(chan struct{})
	go func() {
		b.Acquire()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("Acquire admitted while inflight (3) exceeds shrunk cap (1)")
	case <-time.After(20 * time.Millisecond):
	}
	// Draining 2 of 3 leaves inflight == cap: still full, still blocked.
	b.Return(2)
	select {
	case <-acquired:
		t.Fatal("Acquire admitted while the shrunk budget is exactly full")
	case <-time.After(20 * time.Millisecond):
	}
	// Final return frees the only slot under the new cap.
	b.Return(1)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not wake once the budget drained below the new cap")
	}
	b.Return(1)
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after full drain", got)
	}
}

// TestSetCapHookFiresOnChange covers the capacity-change hook the journal
// installs: it fires only when the setting actually changes, SetCapHook
// returns the predecessor, and nil detaches.
func TestSetCapHookFiresOnChange(t *testing.T) {
	b := NewBudget(4)
	type change struct{ old, new int }
	var calls []change
	if prev := b.SetCapHook(func(o, n int) { calls = append(calls, change{o, n}) }); prev != nil {
		t.Fatal("fresh budget returned a previous hook")
	}
	b.SetCap(4) // unchanged setting: must not fire
	b.SetCap(2)
	b.SetCap(2) // unchanged again
	b.SetCap(0) // switch to GOMAXPROCS tracking: a setting change
	if len(calls) != 2 || calls[0] != (change{4, 2}) || calls[1] != (change{2, 0}) {
		t.Fatalf("cap hook calls = %+v, want [{4 2} {2 0}]", calls)
	}
	var second []change
	if prev := b.SetCapHook(func(o, n int) { second = append(second, change{o, n}) }); prev == nil {
		t.Fatal("SetCapHook did not return the previous hook")
	}
	b.SetCap(3)
	if len(calls) != 2 || len(second) != 1 {
		t.Fatalf("replaced hook fired: calls=%d second=%d", len(calls), len(second))
	}
	b.SetCapHook(nil)
	b.SetCap(1)
	if len(second) != 1 {
		t.Fatal("detached hook fired")
	}
}
