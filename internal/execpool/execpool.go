// Package execpool executes experiment "cells" — pure, hashable units of
// work such as one federated training run to completion — through a shared
// executor that provides three things the serial harness lacked:
//
//   - bounded cross-cell parallelism: a CPU-token budget caps how many cells
//     compute at once, so cell-level fan-out composes with the per-sample
//     goroutines inside internal/nn instead of oversubscribing the machine;
//   - singleflight deduplication: identical cells requested concurrently by
//     different figures run exactly once per process, later requests wait for
//     (or reuse) the first result;
//   - an optional content-addressed on-disk cache: a cell's fingerprint
//     (key + library version) addresses a checksummed gob blob, so repeated
//     bench/CI invocations are warm across processes.
//
// Correctness contract: a cell's compute function must be a pure function of
// its key (every cell forks its own RNG from the seed encoded in it),
// so executing cells in any order, on any number of workers, from memory or
// from disk, yields identical values. Corrupt, truncated or stale cache
// entries are detected by checksum/decode failure and fall back to
// recomputation — never a crash, never wrong data.
package execpool

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"

	"fedca/internal/cputok"
	"fedca/internal/telemetry"
)

// Options configures a Pool.
type Options struct {
	// Workers caps how many cells compute concurrently (the CPU-token
	// budget). <= 0 means GOMAXPROCS. 1 yields the serial reference path:
	// cells run on the calling goroutine in submission order.
	Workers int
	// CacheDir enables the content-addressed on-disk result cache rooted at
	// this directory. Empty disables it (memory-only memoization).
	CacheDir string
	// Version fingerprints the library's result semantics. It is mixed into
	// every cell fingerprint, so bumping it orphans — rather than wrongly
	// serves — entries written by older code.
	Version string
	// Metrics, when non-nil, is the registry that holds the pool's
	// fedca_execpool_* counters and inflight gauge, so they can be exported.
	// Nil keeps them in a private registry; Stats reads them either way.
	Metrics *telemetry.Registry
}

// Stats is a point-in-time snapshot of a pool's counters.
type Stats struct {
	Computed   int64 `json:"computed"`    // cells executed without error
	MemHits    int64 `json:"mem_hits"`    // served from process memory
	DiskHits   int64 `json:"disk_hits"`   // served from the on-disk cache
	DedupWaits int64 `json:"dedup_waits"` // requests that joined an in-flight computation
	DiskErrors int64 `json:"disk_errors"` // corrupt/unreadable cache entries (recomputed)
	DiskWrites int64 `json:"disk_writes"` // cache entries persisted
	Inflight   int64 `json:"inflight"`    // cells computing right now
}

// flight is one in-progress computation other requesters can join.
type flight struct {
	done     chan struct{}
	val      any
	err      error // compute's error, returned to every waiter
	panicked any   // non-nil when compute panicked; re-raised in every waiter
}

// Pool is the cell executor. The zero value is not usable; construct with
// New. A nil *Pool is the fully disabled state: Do computes directly with no
// memoization, bounding or caching.
type Pool struct {
	workers int
	tokens  chan struct{}
	version string
	cache   *diskCache

	mu       sync.Mutex
	mem      map[string]any
	inflight map[string]*flight

	computed, memHits, diskHits, dedupWaits, diskErrors, diskWrites *telemetry.Counter
	running                                                         *telemetry.Gauge
}

// New builds a pool. See Options for the semantics of each field.
func New(o Options) *Pool {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers:  o.Workers,
		tokens:   make(chan struct{}, o.Workers),
		version:  o.Version,
		mem:      make(map[string]any),
		inflight: make(map[string]*flight),
	}
	if o.CacheDir != "" {
		p.cache = &diskCache{dir: o.CacheDir}
	}
	r := o.Metrics
	if r == nil {
		r = telemetry.NewRegistry()
	}
	p.computed = r.Counter("fedca_execpool_computed_total", "Experiment cells executed (cache misses).")
	p.memHits = r.Counter("fedca_execpool_hits_total", "Cells served from cache.", telemetry.Label{Name: "tier", Value: "memory"})
	p.diskHits = r.Counter("fedca_execpool_hits_total", "Cells served from cache.", telemetry.Label{Name: "tier", Value: "disk"})
	p.dedupWaits = r.Counter("fedca_execpool_dedup_waits_total", "Cell requests that joined an identical in-flight computation.")
	p.diskErrors = r.Counter("fedca_execpool_disk_errors_total", "Corrupt or unreadable disk-cache entries that fell back to recompute.")
	p.diskWrites = r.Counter("fedca_execpool_disk_writes_total", "Cell results persisted to the disk cache.")
	p.running = r.Gauge("fedca_execpool_inflight", "Cells computing right now.")
	return p
}

// Stats snapshots the pool's counters. Safe to call concurrently with Do.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Computed:   int64(p.computed.Value()),
		MemHits:    int64(p.memHits.Value()),
		DiskHits:   int64(p.diskHits.Value()),
		DedupWaits: int64(p.dedupWaits.Value()),
		DiskErrors: int64(p.diskErrors.Value()),
		DiskWrites: int64(p.diskWrites.Value()),
		Inflight:   int64(p.running.Value()),
	}
}

// Reset drops the in-memory memoization table. The disk cache, if any, is
// left intact (it is content-addressed; stale entries are unreachable by
// construction). In-flight computations complete normally but their results
// are not re-inserted into the dropped table's successor.
func (p *Pool) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.mem = make(map[string]any)
	p.mu.Unlock()
}

// fingerprint returns the content address of a cell key under the pool's
// library version: sha256(version \0 key), hex-encoded.
func (p *Pool) fingerprint(key string) string {
	version := ""
	if p != nil {
		version = p.version
	}
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return hex.EncodeToString(h.Sum(nil))
}

// Do executes the cell identified by key exactly once per process (and, with
// a disk cache, once across processes), returning the memoized value on every
// subsequent call. The key canonically identifies the cell: it encodes every
// parameter the result depends on, including the seed, so two cells with
// equal keys compute equal values; compute must be a pure function of it. An error from
// compute reaches every request that joined the flight and is neither
// memoized nor persisted: the next request computes again. A nil pool simply
// calls compute.
func Do[T any](p *Pool, key string, compute func() (T, error)) (T, error) {
	if p == nil {
		return compute()
	}
	fp := p.fingerprint(key)

	p.mu.Lock()
	if v, ok := p.mem[fp]; ok {
		p.mu.Unlock()
		p.memHits.Inc()
		return v.(T), nil
	}
	if f, ok := p.inflight[fp]; ok {
		p.mu.Unlock()
		p.dedupWaits.Inc()
		<-f.done
		if f.panicked != nil {
			panic(f.panicked)
		}
		if f.err != nil {
			var zero T
			return zero, f.err
		}
		return f.val.(T), nil
	}
	f := &flight{done: make(chan struct{})}
	p.inflight[fp] = f
	p.mu.Unlock()

	var v T
	var fromDisk bool
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.panicked = r
			}
			p.mu.Lock()
			if f.panicked == nil && f.err == nil {
				p.mem[fp] = v
				f.val = v
			}
			delete(p.inflight, fp)
			p.mu.Unlock()
			close(f.done)
		}()
		if p.cache != nil {
			switch err := p.cache.load(fp, &v); {
			case err == nil:
				fromDisk = true
				p.diskHits.Inc()
				return
			case err != errCacheMiss:
				p.diskErrors.Inc()
			}
		}
		// Admission is two-level: the pool-local token bounds this pool's
		// concurrency, then one process-wide CPU token is acquired (blocking —
		// cell admission is the only top-level, token-free point in the
		// hierarchy, so waiting here cannot deadlock). Nested fan-outs inside
		// compute (client rounds, GEMM rows, conv samples) borrow additional
		// tokens non-blockingly from the same budget.
		p.tokens <- struct{}{}
		cputok.Default().Acquire()
		p.running.Add(1)
		defer func() {
			p.running.Add(-1)
			cputok.Default().Return(1)
			<-p.tokens
		}()
		v, f.err = compute()
		if f.err == nil {
			p.computed.Inc()
		}
	}()
	if f.panicked != nil {
		panic(f.panicked)
	}
	if f.err != nil {
		var zero T
		return zero, f.err
	}
	if p.cache != nil && !fromDisk {
		// Best effort: a full disk or unserializable value must not fail the
		// run — the result is already memoized in memory.
		if err := p.cache.store(fp, v); err == nil {
			p.diskWrites.Inc()
		} else {
			p.diskErrors.Inc()
		}
	}
	return v, nil
}

// Prefetch runs each fn — typically a closure invoking Do for one cell — and
// waits for all of them. With Workers > 1 the fns run on their own
// goroutines so their cells compute concurrently up to the token budget;
// with Workers == 1 they run serially on the calling goroutine, preserving
// the reference execution order exactly. A panic in any fn is re-raised on
// the calling goroutine after the rest finish.
func (p *Pool) Prefetch(fns ...func()) {
	if p == nil || p.workers <= 1 || len(fns) <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	wg.Add(len(fns))
	for _, fn := range fns {
		fn := fn
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			fn()
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
