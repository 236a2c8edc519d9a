package fl_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/cputok"
	"fedca/internal/execpool"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
)

// TestWorkerCountInvariance is the strongest determinism guarantee: the same
// run at GOMAXPROCS=1 and at full parallelism must produce bit-identical
// round records, global model digest and timings included (deterministic
// per-sample reductions in conv backward, per-client noise reseeding, ordered
// aggregation). The chaos variant extends the contract to fault injection:
// fault schedules derive from (seed, client, round) alone, so dropouts,
// slowdowns, link faults, retransmissions and quarantines must also be
// worker-count invariant.
func TestWorkerCountInvariance(t *testing.T) {
	newChaos := func(t *testing.T) *chaos.Engine {
		e, err := chaos.NewEngine(chaos.Config{
			DropProb:     0.3,
			SlowProb:     0.5,
			DegradeProb:  0.3,
			OutageProb:   0.25,
			XferFailProb: 0.2,
			CorruptProb:  0.25,
		}, 17)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cases := []struct {
		name      string
		chaos     func(t *testing.T) *chaos.Engine
		telemetry bool
		fleet     bool
	}{
		{"plain", func(*testing.T) *chaos.Engine { return nil }, false, false},
		{"chaos", newChaos, false, false},
		// Telemetry observes the parallel client phase from worker
		// goroutines; the trace and metrics it gathers must not leak back
		// into the run (see also TestTelemetryInert).
		{"chaos+telemetry", newChaos, true, false},
		// Virtual fleet: lazy cohort materialization, participation
		// sampling and the fold of a whole-cohort cut (AggregateFraction = 1)
		// must all be worker-count invariant too — the fold's in-order
		// frontier makes the floating-point sequence independent of which
		// worker finishes first, even under chaos-injected dropouts and
		// corruptions.
		{"virtual-fleet+chaos", newChaos, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(procs int) ([]fl.RoundRecord, fl.RunStats) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				w := tinyWorkload()
				w.FL.Chaos = tc.chaos(t)
				if tc.telemetry {
					w.FL.Observers = []fl.Observer{telemetry.New()}
				}
				var r *fl.Runner
				var err error
				if tc.fleet {
					w.FL.AggregateFraction = 1
					w.FL.Participation = 0.25
					ftb, ferr := expcfg.BuildFleet(w, 40, 0, trace.PaperConfig(), 50)
					if ferr != nil {
						t.Fatal(ferr)
					}
					r, err = ftb.NewRunner(baseline.FedAvg{})
				} else {
					tb := expcfg.Build(w, 6, trace.PaperConfig(), 50)
					r, err = tb.NewRunner(baseline.FedAvg{})
				}
				if err != nil {
					t.Fatal(err)
				}
				return roundRecords(r, 2), r.Stats()
			}
			serialRecs, serialStats := run(1)
			parallelRecs, parallelStats := run(runtime.NumCPU())
			if !slices.Equal(serialRecs, parallelRecs) {
				t.Fatalf("round records differ between worker counts:\n%+v\n%+v", serialRecs, parallelRecs)
			}
			if !reflect.DeepEqual(serialStats, parallelStats) {
				t.Fatalf("degradation stats differ: %+v vs %+v", serialStats, parallelStats)
			}
		})
	}
}

// TestWorkerCountInvarianceCellsAndKernels exercises every layer of the
// CPU-token hierarchy at once: execpool cells run concurrently, and inside
// each cell the client-round fan-out, the GEMM row fan-out and the conv
// sample fan-out all borrow from the same process-wide budget. The contract
// is twofold: (1) results are bit-identical at a 1-token budget and at a
// many-token budget, and (2) the number of tokens ever held simultaneously —
// a proxy for compute goroutines — never exceeds the budget's capacity.
func TestWorkerCountInvarianceCellsAndKernels(t *testing.T) {
	const cells = 3
	budget := cputok.Default()
	run := func(tokens int) [][]fl.RoundRecord {
		budget.SetCap(tokens)
		defer budget.SetCap(0)
		budget.ResetMax()
		pool := execpool.New(execpool.Options{Workers: cells})
		results := make([][]fl.RoundRecord, cells)
		fns := make([]func(), cells)
		for i := range fns {
			i := i
			fns[i] = func() {
				results[i], _ = execpool.Do(pool, fmt.Sprintf("cell-%d", i), func() ([]fl.RoundRecord, error) {
					w := tinyWorkload()
					tb := expcfg.Build(w, 6, trace.PaperConfig(), 50+uint64(i))
					r, err := tb.NewRunner(baseline.FedAvg{})
					if err != nil {
						panic(err)
					}
					return roundRecords(r, 2), nil
				})
			}
		}
		pool.Prefetch(fns...)
		if held := budget.MaxInflight(); held > tokens {
			t.Fatalf("budget cap %d, but %d tokens were held at once", tokens, held)
		}
		return results
	}
	many := runtime.NumCPU()
	if many < 8 {
		// A 1-CPU box would otherwise compare serial against serial; the
		// budget cap is independent of the core count, so force real fan-out.
		many = 8
	}
	serial := run(1)
	parallel := run(many)
	for c := range serial {
		if len(serial[c]) == 0 || !slices.Equal(serial[c], parallel[c]) {
			t.Fatalf("cell %d: round records missing or differ between token budgets:\n%+v\n%+v", c, serial[c], parallel[c])
		}
	}
}
