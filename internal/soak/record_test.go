package soak

import (
	"reflect"
	"testing"
	"unsafe"

	"fedca"
	"fedca/internal/fl"
	"fedca/internal/runlog"
)

// runnerResults returns the runner's own results for the first n rounds of
// the run opts describes. The facade keeps only one summary per round, so
// they come from a twin federation — the same options and seed, so the same
// run bit for bit — whose unexported runner is driven directly.
func runnerResults(t *testing.T, opts fedca.Options, n int) []fl.RoundResult {
	t.Helper()
	twin, err := fedca.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(twin).Elem().FieldByName("runner")
	runner := *(**fl.Runner)(unsafe.Pointer(v.UnsafeAddr()))
	results := make([]fl.RoundResult, n)
	for i := range results {
		results[i] = runner.RunRound()
	}
	return results
}

// TestRecordFromRoundMatchesRunLog is the differential test for the soak run
// log: over a chaos run with drops and link retries, the record the soak
// writes from every facade round (fedca.Round.Record) equals the one
// runlog.FromRoundResult — the fedca-sim -log path — builds from the
// runner's own result.
func TestRecordFromRoundMatchesRunLog(t *testing.T) {
	run := tinyRun()
	run.Clients = 4
	run.Chaos = "drop=0.3,xfail=0.3,retries=3"
	run.Seed = 11
	fed, err := fedca.New(run)
	if err != nil {
		t.Fatal(err)
	}
	rounds := fed.Run(6)
	results := runnerResults(t, run, 6)
	if len(results) != len(rounds) {
		t.Fatalf("%d runner results for %d rounds", len(results), len(rounds))
	}
	var dropped, retries int
	var upload float64
	for i, rd := range rounds {
		got, want := rd.Record(), runlog.FromRoundResult(results[i])
		if got != want {
			t.Fatalf("round %d: soak record %+v, run-log record %+v", i, got, want)
		}
		dropped += want.Dropped
		retries += want.LinkRetries
		upload += want.UploadBytes
	}
	if dropped == 0 || retries == 0 || upload == 0 {
		t.Fatalf("run exercised %d drops, %d link retries, %v upload bytes; want all non-zero (seed-dependent: adjust the seed)", dropped, retries, upload)
	}
}
