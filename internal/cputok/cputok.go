// Package cputok provides the process-wide CPU-token budget shared by every
// parallelism layer in the repository: execpool cell admission, the fl
// server's client-round workers and weighted reduce, tensor's row-parallel
// GEMM and nn's per-sample fan-out all draw from the same pool of tokens.
// Whichever layer reaches a fan-out point first takes the spare tokens, and
// inner layers fall back to running inline on their caller's goroutine —
// which holds a token, or is covered by one.
//
// Every goroutine that does compute starts from a token. A goroutine an
// execpool cell admitted holds the one Acquire gave it. A goroutine that
// drives rounds from outside any cell — the library facade's RunRound,
// fedca-sim's round loop — takes one with Cover. A fan-out worker runs on a
// token Borrowed for it. So a fan-out borrows only tokens that no running
// goroutine stands for, and the process never runs more compute goroutines
// than the cap.
//
// Run is the one fan-out: every parallel loop in fl, nn and tensor borrows
// its workers' tokens and hands the work to Run, which starts the workers,
// joins them, returns each token as its worker runs out of work, and
// re-raises a worker's panic on the caller.
//
// Deadlock discipline: there are two acquisition modes and one rule.
//
//   - Acquire blocks until a token is free. It is reserved for top-level
//     admission — a goroutine that holds no tokens yet (execpool admitting a
//     cell). A goroutine must never call Acquire while holding tokens.
//   - Borrow never blocks: a nested fan-out asks for up to n extra tokens and
//     receives however many are free right now, possibly zero. The caller
//     always keeps running on its own goroutine, so zero tokens simply means
//     the fan-out degrades to the serial path. Cover is Borrow(1) for a
//     driver: with the budget spent it runs uncovered, never waits.
//
// Because only token-free goroutines ever block, and every holder eventually
// returns its tokens, there is no circular wait.
//
// Determinism: the budget bounds *how many* goroutines run, never *what they
// compute*. Every fan-out in this repository partitions work so each output
// element is written by exactly one worker with a fixed accumulation order,
// so results are bit-identical at any token count (see DESIGN.md §11 and
// fl's TestWorkerCountInvariance).
package cputok

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Budget is a resizable counting semaphore of CPU tokens. The zero value is
// not usable; use NewBudget. Capacity <= 0 means "track runtime.GOMAXPROCS",
// re-read on every acquisition, so tests that flip GOMAXPROCS see the budget
// follow along.
type Budget struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int // <= 0: track GOMAXPROCS dynamically
	inUse    int

	// maxInUse is the high-water mark of concurrently held tokens since the
	// last ResetMax; tests use it to assert the goroutine bound.
	maxInUse int

	capHook atomic.Value // hookBox
}

// NewBudget builds a budget with the given capacity; capacity <= 0 tracks
// runtime.GOMAXPROCS dynamically (the default for the process-wide budget).
func NewBudget(capacity int) *Budget {
	b := &Budget{capacity: capacity}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// budget is the process-wide instance.
var budget = NewBudget(0)

// Default returns the process-wide budget.
func Default() *Budget { return budget }

// cap returns the current capacity; callers hold b.mu.
func (b *Budget) capLocked() int {
	if b.capacity > 0 {
		return b.capacity
	}
	return runtime.GOMAXPROCS(0)
}

// Cap returns the budget's current capacity (GOMAXPROCS when tracking).
func (b *Budget) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capLocked()
}

// Setting returns the raw capacity setting: a positive explicit cap, or
// <= 0 when the budget tracks GOMAXPROCS. Unlike Cap it never resolves the
// tracking state, so Setting/SetCap pairs save and restore the budget
// exactly (the soak harness forces a serial recheck this way).
func (b *Budget) Setting() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// SetCap changes the capacity; n <= 0 returns to tracking GOMAXPROCS.
// Shrinking never revokes tokens already out — the budget simply refuses new
// acquisitions until enough are returned.
func (b *Budget) SetCap(n int) {
	b.mu.Lock()
	old := b.capacity
	b.capacity = n
	b.mu.Unlock()
	b.cond.Broadcast()
	if old != n {
		if v := b.capHook.Load(); v != nil {
			if h := v.(hookBox).h; h != nil {
				h(old, n)
			}
		}
	}
}

// CapHook observes capacity changes (SetCap calls it with the raw settings —
// <= 0 means "track GOMAXPROCS"). The telemetry journal records them as
// cputok-cap events.
type CapHook func(oldCap, newCap int)

// hookBox wraps the hook so atomic.Value tolerates nil stores.
type hookBox struct{ h CapHook }

// SetCapHook attaches a capacity-change observer and returns the previously
// attached one (nil detaches). The hook runs on the SetCap caller's goroutine
// outside the budget's lock, so it may touch the budget freely.
func (b *Budget) SetCapHook(h CapHook) CapHook {
	var prev CapHook
	if v := b.capHook.Swap(hookBox{h}); v != nil {
		prev = v.(hookBox).h
	}
	return prev
}

// Acquire blocks until a token is free and takes it. Top-level admission
// only: never call while holding tokens (see the package deadlock rule).
func (b *Budget) Acquire() {
	b.mu.Lock()
	for b.inUse >= b.capLocked() {
		b.cond.Wait()
	}
	b.take(1)
	b.mu.Unlock()
}

// Cover is admission for a goroutine that drives work from outside an
// execpool cell: it takes one token if one is free right now and returns how
// many it took, 0 or 1, for the caller to hand back with Return when the
// work is done — typically defer b.Return(b.Cover()). It never blocks, so it
// is safe where a token is already held: under a serial recheck's cap 1, or
// inside a cell, it takes nothing and the work runs covered by the token
// already out. Without it, a driver's work runs on no token, and every
// fan-out under it borrows one token more than the cores it has.
func (b *Budget) Cover() int { return b.Borrow(1) }

// Borrow takes up to n tokens without blocking and returns how many were
// taken (possibly 0). A fan-out wanting w workers borrows w-1 extra tokens —
// the calling goroutine is its own first worker — and hands them to Run,
// which returns them.
func (b *Budget) Borrow(n int) int {
	if n <= 0 {
		return 0
	}
	b.mu.Lock()
	free := b.capLocked() - b.inUse
	if free <= 0 {
		b.mu.Unlock()
		return 0
	}
	if n > free {
		n = free
	}
	b.take(n)
	b.mu.Unlock()
	return n
}

// Return hands back n tokens taken with Acquire, Cover or Borrow; Return(1)
// is Acquire's counterpart.
func (b *Budget) Return(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.inUse -= n
	if b.inUse < 0 {
		panic("cputok: more tokens returned than acquired")
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Run calls job.Do(i, w) once for every i in [0, n): worker 0 is the calling
// goroutine, and workers 1..extra are goroutines started on the extra tokens
// the caller borrowed. Each returns its token as soon as no item is left, so
// all are back when Run returns. Items are claimed from one counter, so only
// which worker runs an item depends on scheduling. After a panic in any Do no
// worker claims another item; Run joins the workers and re-panics on the
// caller with the first panic's value. With extra 0 Run is a plain loop,
// which allocates nothing.
func (b *Budget) Run(extra, n int, job interface{ Do(i, w int) }) {
	if spare := extra - max(n-1, 0); spare > 0 {
		b.Return(spare)
		extra -= spare
	}
	if extra <= 0 {
		for i := 0; i < n; i++ {
			job.Do(i, 0)
		}
		return
	}
	f := fanOuts.Get().(*fanOut)
	f.b, f.job, f.n = b, job, int64(n)
	f.wg.Add(extra)
	for w := 1; w <= extra; w++ {
		go f.borrowed(w)
	}
	f.work(0)
	f.wg.Wait()
	v := f.first.Load()
	f.b, f.job = nil, nil
	f.next.Store(0)
	f.first.Store(nil)
	fanOuts.Put(f)
	if v != nil {
		panic(*v)
	}
}

// fanOuts recycles Run's shared state: every worker has stopped touching
// a fanOut once Wait returns, so the next Run can take it instead of
// allocating its own.
var fanOuts = sync.Pool{New: func() any { return new(fanOut) }}

// fanOut is one Run's shared state.
type fanOut struct {
	b     *Budget
	job   interface{ Do(i, w int) }
	n     int64
	next  atomic.Int64
	wg    sync.WaitGroup
	first atomic.Pointer[any] // the first panic's value
}

// borrowed is worker w's goroutine: it returns its token when it stops.
func (f *fanOut) borrowed(w int) {
	defer f.wg.Done()
	defer f.b.Return(1)
	f.work(w)
}

// work claims items for worker w until none is left. A panic in Do is
// recorded, the first one's value kept, and ends the claims of every worker.
func (f *fanOut) work(w int) {
	defer func() {
		if v := recover(); v != nil {
			f.next.Store(f.n)
			first := v // escapes here, not on every return
			f.first.CompareAndSwap(nil, &first)
		}
	}()
	for {
		i := f.next.Add(1) - 1
		if i >= f.n {
			return
		}
		f.job.Do(int(i), w)
	}
}

// take records n tokens out; callers hold b.mu.
func (b *Budget) take(n int) {
	b.inUse += n
	if b.inUse > b.maxInUse {
		b.maxInUse = b.inUse
	}
}

// Inflight returns the number of tokens currently held.
func (b *Budget) Inflight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// MaxInflight returns the high-water mark of concurrently held tokens since
// the last ResetMax.
func (b *Budget) MaxInflight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxInUse
}

// ResetMax resets the high-water mark to the current in-flight count.
func (b *Budget) ResetMax() {
	b.mu.Lock()
	b.maxInUse = b.inUse
	b.mu.Unlock()
}
