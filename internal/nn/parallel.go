package nn

import (
	"sync"
	"sync/atomic"

	"fedca/internal/cputok"
)

// sampleRunner is the per-sample work of one layer call: newScratch builds a
// worker's reusable scratch, sample processes index i with it. Implementations
// are pointers to state embedded in the layer, so converting one to this
// interface stores the pointer directly — no heap allocation. (The obvious
// alternative, passing functions into parallelSamples, allocates every call:
// referencing a generic function as a value from a generic context builds a
// dictionary-bound closure at runtime, which the steady-state zero-alloc
// guarantee forbids.)
type sampleRunner interface {
	newScratch() any
	sample(i int, scratch any)
}

// scratchPool is a per-layer free-list of worker scratch (im2col buffers,
// packed panels). Scratch used to be allocated fresh by every parallel
// fan-out; recycling it through the layer keeps steady-state training free of
// per-batch allocations. The mutex is uncontended in practice: get/put run
// once per worker per layer call, not per sample.
type scratchPool struct {
	mu   sync.Mutex
	free []any
}

func (p *scratchPool) get(r sampleRunner) any {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return r.newScratch()
}

func (p *scratchPool) put(s any) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// parallelSamples runs r.sample(i, scratch) for i in [0, n), fanning out
// across workers when the per-item work is heavy (convolutions over a batch).
// Each index is processed by exactly one worker, so any writes partitioned by
// i are race-free and the result is independent of scheduling.
//
// Extra workers are borrowed from the process-wide CPU-token budget
// (internal/cputok): the calling goroutine is always the first worker, and
// when the budget is spent — e.g. every token is held by sibling experiment
// cells or client-round workers — the fan-out degrades to the serial path
// instead of oversubscribing the scheduler.
//
// When pool is non-nil, scratch is drawn from and returned to it, so a layer
// allocates scratch only until the pool has seen its peak worker count.
func parallelSamples(n int, heavy bool, pool *scratchPool, r sampleRunner) {
	if !heavy || n <= 1 {
		serialSamples(n, pool, r)
		return
	}
	budget := cputok.Default()
	want := budget.Cap()
	if want > n {
		want = n
	}
	borrowed := budget.Borrow(want - 1)
	if borrowed == 0 {
		serialSamples(n, pool, r)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(borrowed)
	for w := 0; w < borrowed; w++ {
		go func() {
			defer wg.Done()
			sampleWorker(&next, n, pool, r)
		}()
	}
	sampleWorker(&next, n, pool, r)
	wg.Wait()
	budget.Return(borrowed)
}

// serialSamples is the zero-alloc degenerate fan-out: one worker, indices in
// order, no goroutines and no closures.
func serialSamples(n int, pool *scratchPool, r sampleRunner) {
	scratch := getScratchFrom(pool, r)
	for i := 0; i < n; i++ {
		r.sample(i, scratch)
	}
	if pool != nil {
		pool.put(scratch)
	}
}

// sampleWorker claims work indices with a single atomic increment: this sits
// on the per-sample hot path, where a mutex handoff costs more than the
// sample's arithmetic for small kernels.
func sampleWorker(next *atomic.Int64, n int, pool *scratchPool, r sampleRunner) {
	scratch := getScratchFrom(pool, r)
	for {
		i := int(next.Add(1) - 1)
		if i >= n {
			break
		}
		r.sample(i, scratch)
	}
	if pool != nil {
		pool.put(scratch)
	}
}

func getScratchFrom(pool *scratchPool, r sampleRunner) any {
	if pool != nil {
		return pool.get(r)
	}
	return r.newScratch()
}

// The layers between the products — ReLU, the residual sum, pooling, batch
// norm — fan out through the same path. Inside a training iteration every
// token is normally held by a client worker, so they run serially there; the
// server's evaluation pass, which runs alone, is where the tokens are free.

// noScratch is embedded by sample runners that need no per-worker state.
type noScratch struct{}

func (noScratch) newScratch() any { return nil }

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
