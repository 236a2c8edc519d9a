package nn

import (
	"sync"
	"sync/atomic"

	"fedca/internal/cputok"
)

// sampleRunner is the per-sample work of one layer call: sample processes
// index i on worker w. A runner that needs per-worker scratch draws it for
// the call's workers in begin, on the calling goroutine before the fan-out —
// the layer's arena has one owner — and hands it back in end, after the join,
// so the next layer's scratch is cut from the same bytes. Implementations are
// pointers to state embedded in the layer, so converting one to this
// interface stores the pointer directly — no heap allocation. (The obvious
// alternative, passing functions into parallelSamples, allocates every call:
// referencing a generic function as a value from a generic context builds a
// dictionary-bound closure at runtime, which the steady-state zero-alloc
// guarantee forbids.)
type sampleRunner interface {
	begin(workers int)
	sample(i, w int)
	end()
}

// parallelSamples runs r.sample(i, w) for i in [0, n), fanning out across
// workers when the per-item work is heavy (convolutions over a batch). Each
// index is processed by exactly one worker, so any writes partitioned by i
// are race-free and the result is independent of scheduling.
//
// Extra workers are borrowed from the process-wide CPU-token budget
// (internal/cputok): the calling goroutine is always worker 0, and when the
// budget is spent — e.g. every token is held by sibling experiment cells or
// client-round workers — the fan-out degrades to the serial path instead of
// oversubscribing the scheduler.
func parallelSamples(n int, heavy bool, r sampleRunner) {
	budget := cputok.Default()
	borrowed := 0
	if heavy && n > 1 {
		borrowed = budget.Borrow(min(budget.Cap(), n) - 1)
	}
	r.begin(borrowed + 1)
	if borrowed == 0 {
		// The zero-alloc degenerate fan-out: one worker, indices in order, no
		// goroutines and no closures.
		for i := 0; i < n; i++ {
			r.sample(i, 0)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(borrowed)
		for w := 1; w <= borrowed; w++ {
			go func() {
				defer wg.Done()
				sampleWorker(&next, n, w, r)
			}()
		}
		sampleWorker(&next, n, 0, r)
		wg.Wait()
		budget.Return(borrowed)
	}
	r.end()
}

// sampleWorker claims work indices with a single atomic increment: this sits
// on the per-sample hot path, where a mutex handoff costs more than the
// sample's arithmetic for small kernels.
func sampleWorker(next *atomic.Int64, n, w int, r sampleRunner) {
	for {
		i := int(next.Add(1) - 1)
		if i >= n {
			return
		}
		r.sample(i, w)
	}
}

// The layers between the products — ReLU, the residual sum, pooling, batch
// norm — fan out through the same path. Inside a training iteration every
// token is held — one by the goroutine driving the round, the rest by the
// client workers it borrowed — so they run serially there. Tokens are free
// in the server's evaluation pass, which runs alone, and at the tail of the
// train stage, once a worker has run out of clients and returned its own.

// noScratch is embedded by sample runners that need no per-worker state.
type noScratch struct{}

func (noScratch) begin(int) {}
func (noScratch) end()      {}

// elemChunk is how many elements of an elementwise layer one work index
// covers: enough that claiming an index costs nothing beside it, small enough
// that a 256-sample activation splits into hundreds.
const elemChunk = 1 << 14

// elemChunks returns the number of work indices covering n elements, and
// elemRange the elements index i covers.
func elemChunks(n int) int { return (n + elemChunk - 1) / elemChunk }

func elemRange(i, n int) (lo, hi int) {
	return i * elemChunk, min((i+1)*elemChunk, n)
}

// heavyElems reports whether a pass over n elements (a load, a compare or an
// add, and a store each) outweighs starting a goroutine.
func heavyElems(n int) bool { return n >= 1<<16 }
