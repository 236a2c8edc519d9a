package nn

import "fedca/internal/cputok"

// sampleRunner is the per-sample work of one layer call: Do processes index
// i on worker w. A runner that needs per-worker scratch draws it for the
// call's workers in begin, on the calling goroutine before the fan-out — the
// layer's arena has one owner — and hands it back in end, after the join, so
// the next layer's scratch is cut from the same bytes. Implementations are
// pointers to state embedded in the layer, so converting one to this
// interface stores the pointer directly — no heap allocation. (The obvious
// alternative, passing functions into parallelSamples, allocates every call:
// referencing a generic function as a value from a generic context builds a
// dictionary-bound closure at runtime, which the steady-state zero-alloc
// guarantee forbids.)
type sampleRunner interface {
	begin(workers int)
	Do(i, w int)
	end()
}

// parallelSamples runs r.Do(i, w) for i in [0, n) through cputok's one
// fan-out, borrowing extra workers from the process-wide CPU-token budget
// when the per-item work is heavy (convolutions over a batch). Each index is
// processed by exactly one worker, so any writes partitioned by i are
// race-free and the result is independent of scheduling. When the budget is
// spent — e.g. every token is held by sibling experiment cells or
// client-round workers — the fan-out degrades to the serial path on the
// calling goroutine instead of oversubscribing the scheduler.
func parallelSamples(n int, heavy bool, r sampleRunner) {
	budget := cputok.Default()
	extra := 0
	if heavy && n > 1 {
		extra = budget.Borrow(min(budget.Cap(), n) - 1)
	}
	r.begin(extra + 1)
	budget.Run(extra, n, r)
	r.end()
}

// The layers between the products — ReLU, the residual sum, pooling, batch
// norm — fan out through the same path. Inside a training iteration every
// token is held — one by the goroutine driving the round, the rest by the
// client workers it borrowed — so they run serially there, as a plain loop
// that allocates nothing. Tokens are free in the server's evaluation pass,
// which runs alone, and at the tail of the train stage, once a worker has
// run out of clients and Run has returned its token.

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
