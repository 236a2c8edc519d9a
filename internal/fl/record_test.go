package fl_test

import (
	"bytes"
	"slices"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
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
	w.FL.Observers = []fl.Observer{sink, journal}
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

// TestRoundRecordSumsItsUpdates: over a FedCA chaos run with drops, link
// retries and quarantines, every round's record holds the counts, sums and
// means of its own client-rounds — what the run log, the facade and the
// observers all read from it.
func TestRoundRecordSumsItsUpdates(t *testing.T) {
	w := tinyWorkload()
	ccfg, err := chaos.ParseSpec("drop=0.3,xfail=0.3,retries=3,corrupt=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if w.FL.Chaos, err = chaos.NewEngine(ccfg, 11); err != nil {
		t.Fatal(err)
	}
	scheme, err := expcfg.SchemeByName("fedca", &w.FL, core.DefaultOptions(w.FL.LocalIters), 11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := expcfg.Build(w, 6, trace.PaperConfig(), 11).NewRunner(scheme)
	if err != nil {
		t.Fatal(err)
	}
	var total fl.RoundRecord
	for i := 0; i < 6; i++ {
		res := r.RunRound()
		want := fl.RoundRecord{
			Index: i, Start: res.Start, End: res.End, Accuracy: res.Accuracy,
			Collected: len(res.Collected), Discarded: len(res.Discarded),
			Skipped: res.Skipped, Params: res.Params,
		}
		var iters, eager, retr float64
		for _, u := range res.Collected {
			iters += float64(u.Iterations)
			eager += float64(u.EagerSent)
			retr += float64(u.Retransmitted)
		}
		if n := float64(want.Collected); n > 0 {
			want.MeanIterations, want.EagerSent, want.Retransmitted = iters/n, eager/n, retr/n
		}
		for _, us := range [][]fl.Update{res.Collected, res.Discarded} {
			for _, u := range us {
				want.UploadBytes += u.UploadBytes
				want.LinkRetries += u.LinkRetries
				if u.Dropped {
					want.Dropped++
				}
				if u.Quarantined {
					want.Quarantined++
				}
			}
		}
		if res.RoundRecord != want {
			t.Fatalf("round %d: record %+v, its updates sum to %+v", i, res.RoundRecord, want)
		}
		total.Dropped += want.Dropped
		total.LinkRetries += want.LinkRetries
		total.Quarantined += want.Quarantined
		total.UploadBytes += want.UploadBytes
	}
	if total.Dropped == 0 || total.LinkRetries == 0 || total.Quarantined == 0 || total.UploadBytes == 0 {
		t.Fatalf("run exercised %d drops, %d link retries, %d quarantines, %v upload bytes; want all non-zero (seed-dependent: adjust the seed)",
			total.Dropped, total.LinkRetries, total.Quarantined, total.UploadBytes)
	}
}
