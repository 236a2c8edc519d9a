package experiments

import (
	"errors"
	"sync"

	"fedca/internal/cputok"
	"fedca/internal/execpool"
)

// Every expensive training unit in this package — one federated run to
// completion, one curve-probe sweep — is a cell: a pure function of its
// run's canonical spec string (expcfg.Options, seed included) and its
// rounds. Cells execute through a
// shared internal/execpool executor, which deduplicates identical cells
// across figures (Fig. 7, Table 1 and Fig. 9 share convergence runs), runs
// distinct cells in parallel under a CPU-token budget, and optionally
// persists results in a content-addressed on-disk cache so repeated bench
// and CI invocations are warm. Each experiment declares its cells in the
// registry table; Run prefetches them, then the renderer reads the memoized
// results serially, so the emitted Result is byte-identical to the serial
// path at any worker count.

// cacheVersion fingerprints the semantics of cell results. It is mixed into
// every on-disk cell address; bump it whenever training arithmetic, cell key
// layout or a cached type's shape changes, so stale entries are orphaned
// instead of wrongly served.
const cacheVersion = "fedca-cells-v10"

var (
	execMu sync.RWMutex
	exec   = execpool.New(execpool.Options{Version: cacheVersion})
)

// Configure replaces the package executor. The zero Options give the
// default: GOMAXPROCS-bounded parallelism, no disk cache. Workers: 1
// selects the serial reference path. An empty Version is filled with
// cacheVersion. Configure drops the in-memory memoization of the previous
// executor; the disk cache (if any) persists.
func Configure(o execpool.Options) {
	if o.Version == "" {
		o.Version = cacheVersion
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

// prefetch computes cells in parallel under the executor's token budget
// (serially, in order, when Workers == 1) and returns once all are memoized.
// It returns every cell's error, joined in declaration order.
func prefetch(s Scale, seed uint64, cells []cellSpec) error {
	errs := make([]error, len(cells))
	fns := make([]func(), len(cells))
	for i, c := range cells {
		fns[i] = func() {
			in := &inputs{s: s, seed: seed}
			in.run(c)
			errs[i] = in.err
		}
	}
	pool().Prefetch(fns...)
	return errors.Join(errs...)
}
