package cputok

import (
	"sync/atomic"
	"testing"
	"time"
)

// countJob counts the calls of each index and records the highest worker.
type countJob struct {
	calls []atomic.Int32
	maxW  atomic.Int32
}

func (j *countJob) Do(i, w int) {
	j.calls[i].Add(1)
	for {
		m := j.maxW.Load()
		if int32(w) <= m || j.maxW.CompareAndSwap(m, int32(w)) {
			return
		}
	}
}

func TestRunCallsEveryIndexOnce(t *testing.T) {
	for _, extra := range []int{0, 1, 3} {
		for _, n := range []int{0, 1, 2, 5, 1000} {
			b := NewBudget(4)
			got := b.Borrow(extra)
			j := &countJob{calls: make([]atomic.Int32, n)}
			b.Run(got, n, j)
			for i := range j.calls {
				if c := j.calls[i].Load(); c != 1 {
					t.Fatalf("extra %d, n %d: index %d ran %d times, want 1", extra, n, i, c)
				}
			}
			if w := int(j.maxW.Load()); w > got {
				t.Fatalf("extra %d, n %d: worker %d ran, want ≤ %d", extra, n, w, got)
			}
			if in := b.Inflight(); in != 0 {
				t.Fatalf("extra %d, n %d: %d tokens held after Run, want 0", extra, n, in)
			}
		}
	}
}

// panicJob panics with its value on the first item the chosen side claims —
// worker 0 (the caller) or a borrowed worker — while the other side waits
// for the panic on its first item, so both sides are busy when it happens.
// Every later item takes long enough that running them all would show.
type panicJob struct {
	onCaller bool
	value    any
	gate     chan struct{}
	calls    atomic.Int32
}

func (j *panicJob) Do(_, w int) {
	if j.calls.Add(1) > 2 {
		time.Sleep(100 * time.Microsecond)
		return
	}
	if (w == 0) == j.onCaller {
		close(j.gate)
		panic(j.value)
	}
	<-j.gate
}

func TestRunReraisesAndReturnsTokens(t *testing.T) {
	for _, onCaller := range []bool{true, false} {
		b := NewBudget(4)
		held := b.Borrow(1) // the caller's own token
		extra := b.Borrow(1)
		const n = 10000
		value := &struct{ onCaller bool }{onCaller}
		j := &panicJob{onCaller: onCaller, value: value, gate: make(chan struct{})}
		func() {
			defer func() {
				if v := recover(); v != any(value) {
					t.Fatalf("panic on caller %v: recovered %v, want the worker's own value", onCaller, v)
				}
			}()
			b.Run(extra, n, j)
			t.Fatalf("panic on caller %v: Run returned without panicking", onCaller)
		}()
		if in := b.Inflight(); in != held {
			t.Fatalf("panic on caller %v: %d tokens held after Run, want %d", onCaller, in, held)
		}
		if c := j.calls.Load(); c > n/2 {
			t.Fatalf("panic on caller %v: %d of %d items ran; workers kept claiming after the panic", onCaller, c, n)
		}
		// The next fan-out reuses the state the panicking one left behind:
		// it must start from the first item, with no panic recorded.
		next := &countJob{calls: make([]atomic.Int32, 100)}
		b.Run(b.Borrow(1), len(next.calls), next)
		for i := range next.calls {
			if c := next.calls[i].Load(); c != 1 {
				t.Fatalf("panic on caller %v: the next Run ran index %d %d times, want 1", onCaller, i, c)
			}
		}
	}
}

// nopJob does nothing; a pointer to it is what a layer hands to Run.
type nopJob struct{ sum int }

func (j *nopJob) Do(i, _ int) { j.sum += i }

func TestRunSerialAllocatesNothing(t *testing.T) {
	b := NewBudget(1)
	j := &nopJob{}
	if a := testing.AllocsPerRun(100, func() { b.Run(0, 16, j) }); a != 0 {
		t.Fatalf("serial Run allocated %v times per call, want 0", a)
	}
}
