package fl_test

import (
	"bytes"
	"slices"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/expcfg"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
)

// TestJournalStreamWorkerCountInvariant: every journal event of a run is
// emitted serially in the record stage, so the JSON-lines stream a
// consumer drains — sequence numbers included — is the same at 1 and at 4
// workers.
func TestJournalStreamWorkerCountInvariant(t *testing.T) {
	var streams [2]bytes.Buffer
	for i, workers := range []int{1, 4} {
		_, journal := recordPinRun(t, workers)
		if _, err := journal.WriteSince(&streams[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	if streams[0].Len() == 0 {
		t.Fatal("the run journaled nothing")
	}
	if !bytes.Equal(streams[0].Bytes(), streams[1].Bytes()) {
		t.Fatalf("journal stream differs between 1 and 4 workers:\n--- 1 ---\n%s\n--- 4 ---\n%s", streams[0].Bytes(), streams[1].Bytes())
	}
}

// TestDropoutJournaledWhenTraced: a dropout's journal event carries the
// virtual time at which the trace places the client's dropout instant — the
// end of its training, which began when its download did.
func TestDropoutJournaledWhenTraced(t *testing.T) {
	eng, err := chaos.NewEngine(chaos.Config{DropProb: 0.5}, 50)
	if err != nil {
		t.Fatal(err)
	}
	w := tinyWorkload()
	w.FL.Chaos = eng
	sink, journal := telemetry.New(), telemetry.NewJournal(0)
	w.FL.Telemetry, w.FL.Journal = sink, journal
	r, err := expcfg.Build(w, 6, trace.PaperConfig(), 50).NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		r.RunRound()
	}
	// Per client, the dropout instants in time order are its dropouts in
	// round order.
	traced := map[int][]float64{}
	for _, e := range sink.Tracer().Events() {
		if e.Name == "dropout" {
			traced[e.TID] = append(traced[e.TID], e.TS)
		}
	}
	journaled := map[int][]float64{}
	n := 0
	for _, e := range journal.Since(0) {
		if e.Type == telemetry.EvDropout {
			tid := telemetry.ClientTrack(e.Client)
			journaled[tid] = append(journaled[tid], e.VTime*1e6)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no client dropped; the test needs dropouts")
	}
	for tid, ts := range traced {
		slices.Sort(ts)
		if !slices.Equal(ts, journaled[tid]) {
			t.Errorf("client %d: dropouts journaled at %v µs, traced at %v µs", tid-1, journaled[tid], ts)
		}
	}
	if len(traced) != len(journaled) {
		t.Errorf("dropouts traced for %d clients, journaled for %d", len(traced), len(journaled))
	}
}
