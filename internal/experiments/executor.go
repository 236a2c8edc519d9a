package experiments

import (
	"sync"

	"fedca/internal/cputok"
	"fedca/internal/execpool"
)

// Every expensive training unit in this package — one federated run to
// completion, one curve-probe sweep — is a cell: a pure function of a
// canonical (workload, scheme, scale, seed) key. Cells execute through a
// shared internal/execpool executor, which deduplicates identical cells
// across figures (Fig. 7, Table 1 and Fig. 9 share convergence runs), runs
// distinct cells in parallel under a CPU-token budget, and optionally
// persists results in a content-addressed on-disk cache so repeated bench
// and CI invocations are warm. Generators declare their cell set up front
// via prefetch, then render serially from the memoized results, so the
// emitted Result is byte-identical to the serial path at any worker count.

// CacheVersion fingerprints the semantics of cell results. It is mixed into
// every on-disk cell address; bump it whenever training arithmetic, cell key
// layout or a cached type's shape changes, so stale entries are orphaned
// instead of wrongly served.
const CacheVersion = "fedca-cells-v2"

var (
	execMu sync.RWMutex
	exec   = execpool.New(execpool.Options{Version: CacheVersion})
)

// Configure replaces the package executor. The zero Options give the
// default: GOMAXPROCS-bounded parallelism, no disk cache. Workers: 1
// selects the serial reference path. An empty Version is filled with
// CacheVersion. Configure drops the in-memory memoization of the previous
// executor; the disk cache (if any) persists.
func Configure(o execpool.Options) {
	if o.Version == "" {
		o.Version = CacheVersion
	}
	execMu.Lock()
	exec = execpool.New(o)
	execMu.Unlock()
}

// ExecStats snapshots the executor's hit/miss/dedup counters.
func ExecStats() execpool.Stats { return pool().Stats() }

// DefaultWorkers is the executor's default cell-admission width: the
// capacity of the process-wide CPU-token budget every compute layer draws
// from (cputok tracks GOMAXPROCS unless overridden with SetCap).
func DefaultWorkers() int { return cputok.Default().Cap() }

func pool() *execpool.Pool {
	execMu.RLock()
	defer execMu.RUnlock()
	return exec
}

// cell executes one cached training unit through the executor.
func cell[T any](kind, key string, compute func() T) T {
	return execpool.Do(pool(), execpool.Spec{Kind: kind, Key: key}, compute)
}

// prefetch computes a generator's cell set — each fn invokes one cell — in
// parallel under the executor's token budget (serially when Workers == 1),
// returning once all are memoized.
func prefetch(fns ...func()) { pool().Prefetch(fns...) }
