package fedca_test

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	fedca "fedca"
	"fedca/internal/runlog"
)

var update = flag.Bool("update", false, "rewrite the run logs under testdata/pinned")

// kernelAVX2 and kernelVecMath are internal/tensor's two dispatch switches
// (the AVX2 kernels; the FMA sigmoid and tanh), set there once from CPUID and
// written by nothing else but tests.
//
//go:linkname kernelAVX2 fedca/internal/tensor.useAVX2
var kernelAVX2 bool

//go:linkname kernelVecMath fedca/internal/tensor.useVecMath
var kernelVecMath bool

// pinnedRounds is how many rounds -update writes into a pinned log.
const pinnedRounds = 2

// TestPinnedRunLogs replays each run log under testdata/pinned, two rounds of
// a benchmark workload at its smoke-test size, on the portable kernels and
// then on the ones the CPU selected. Every round must reproduce its record
// on both paths, params included: a record does not depend on the machine.
// The last record of each log carries the parameter checksum recorded before
// the compute floor was rebuilt (commit 4c90e5b, scalar float64 / SSE2
// float32 kernels). The kernels, the patch-matrix layouts and the skipped
// first-layer input gradient may change how the arithmetic is scheduled,
// never a single bit of its result, so a mismatch here is a kernel bug, not
// a tolerance question. TestSimGolden runs fedca-sim on the detected path
// only, and on none of these workloads' shapes.
//
// A new pin is a log holding only a header line (a run's spec, as
// fedca-sim -log writes it); -update fills in its records:
//
//	go test -run TestPinnedRunLogs -update .
func TestPinnedRunLogs(t *testing.T) {
	logs, err := filepath.Glob(filepath.Join("testdata", "pinned", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 5 {
		t.Fatalf("found %d pinned run logs, want 5", len(logs))
	}
	for _, path := range logs {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".jsonl"), func(t *testing.T) {
			avx2, vecMath := kernelAVX2, kernelVecMath
			defer func() { kernelAVX2, kernelVecMath = avx2, vecMath }()
			for _, kernels := range []string{"portable", "detected"} {
				kernelAVX2, kernelVecMath = kernels == "detected" && avx2, kernels == "detected" && vecMath
				if *update && kernels == "portable" {
					rewriteLog(t, path)
				}
				if n := replayLog(t, path); n == 0 {
					t.Fatalf("%s holds no rounds (run with -update to fill it in)", path)
				}
			}
		})
	}
}

// replayLog runs the federation a run log's header spec describes for as
// many rounds as the log holds, fails at the first round whose record
// differs from the logged one, and returns the number of rounds.
func replayLog(t *testing.T, path string) int {
	t.Helper()
	run, fed := openLog(t, path)
	for i, want := range run.Rounds {
		if got := fed.RunRound(); got != want {
			t.Fatalf("%s round %d:\nreplayed %+v\nlogged   %+v", path, i, got, want)
		}
	}
	return len(run.Rounds)
}

// rewriteLog replaces a run log's records with pinnedRounds rounds of the
// federation its header spec describes.
func rewriteLog(t *testing.T, path string) {
	t.Helper()
	run, fed := openLog(t, path)
	w, err := runlog.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(run.Header); err != nil {
		t.Fatal(err)
	}
	for _, rd := range fed.Run(pinnedRounds) {
		if err := w.WriteRound(rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// openLog reads a run log and builds the federation its header spec
// describes.
func openLog(t *testing.T, path string) (*runlog.Run, *fedca.Federation) {
	t.Helper()
	run, err := runlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var o fedca.Options
	if err := o.Set(run.Header.Spec); err != nil {
		t.Fatal(err)
	}
	fed, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	return run, fed
}
