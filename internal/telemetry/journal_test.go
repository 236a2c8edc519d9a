package telemetry

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"fedca/internal/chaos"
	"fedca/internal/fl"
)

// TestJournalSequenceAndEviction is the journal's property test: sequence
// numbers strictly increase in recording order, and once the ring overflows,
// retention keeps exactly the newest capacity events — no more, no fewer, no
// gaps.
func TestJournalSequenceAndEviction(t *testing.T) {
	const capacity = 32
	for _, total := range []int{1, 7, 31, 32, 33, 100, 1000} {
		j := NewJournal(capacity)
		for i := 0; i < total; i++ {
			j.record(Event{Type: EvRound, Round: i, VTime: float64(i)})
		}
		if got := j.LastSeq(); got != uint64(total) {
			t.Fatalf("LastSeq = %d after %d events", got, total)
		}
		events := j.Since(0)
		want := min(total, capacity)
		if len(events) != want {
			t.Fatalf("total=%d: retained %d events, want %d", total, len(events), want)
		}
		// Exactly the newest window, strictly ascending and dense.
		wantFirst := uint64(total - want + 1)
		for i, e := range events {
			if e.Seq != wantFirst+uint64(i) {
				t.Fatalf("total=%d: event %d has seq %d, want %d (retention must keep exactly the newest %d)",
					total, i, e.Seq, wantFirst+uint64(i), want)
			}
		}
	}
}

// TestJournalExactCapacity pins the capacity: NewJournal(c) keeps exactly the
// newest c events, and c <= 0 selects the default of 4096.
func TestJournalExactCapacity(t *testing.T) {
	for _, tc := range []struct{ capacity, keeps int }{
		{1, 1}, {7, 7}, {100, 100}, {4096, 4096}, {0, 4096},
	} {
		j := NewJournal(tc.capacity)
		total := 2*tc.keeps + 3
		for i := 0; i < total; i++ {
			j.record(Event{Type: EvRound, Round: i})
		}
		events := j.Since(0)
		if len(events) != tc.keeps {
			t.Fatalf("NewJournal(%d) keeps %d events, want %d", tc.capacity, len(events), tc.keeps)
		}
		for i, e := range events {
			if want := uint64(total - tc.keeps + 1 + i); e.Seq != want || e.Round != int(want)-1 {
				t.Fatalf("NewJournal(%d): event %d = %+v, want seq %d", tc.capacity, i, e, want)
			}
		}
	}
}

// TestJournalConcurrentReaderSeesNoGaps polls Since from the last Seq seen
// while another goroutine records. A poll may skip events only because the
// ring evicted them: a gap whose missing event an immediate re-query still
// finds means a query returned a later event before an earlier one was
// stored, and a /events?since= poller would lose that event for good.
func TestJournalConcurrentReaderSeesNoGaps(t *testing.T) {
	const total = 200_000
	j := NewJournal(4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			j.record(Event{Type: EvRound, Round: i})
		}
	}()
	var last uint64
	for last < total {
		for _, e := range j.Since(last) {
			if e.Seq != last+1 {
				if again := j.Since(last); len(again) > 0 && again[0].Seq == last+1 {
					t.Fatalf("poll after seq %d returned seq %d; a re-query finds seq %d", last, e.Seq, last+1)
				}
			}
			last = e.Seq
		}
	}
	<-done
}

// TestJournalConcurrentRecording hammers the journal from many goroutines
// (meaningful under -race) and checks the retained window is still dense and
// strictly ascending afterwards.
func TestJournalConcurrentRecording(t *testing.T) {
	j := NewJournal(64)
	const goroutines, each = 8, 500
	plan := &chaos.Plan{Up: []chaos.LinkWindow{{From: 0, To: 1, Scale: 0.5}}}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.ClientRound(i, 0, &fl.Update{ClientID: g, Iterations: 10, TrainTime: 1, UploadBytes: 100, Chaos: plan})
			}
		}(g)
	}
	wg.Wait()
	if got := j.LastSeq(); got != goroutines*each {
		t.Fatalf("LastSeq = %d, want %d", got, goroutines*each)
	}
	events := j.Since(0)
	if len(events) != 64 {
		t.Fatalf("retained %d, want full ring 64", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("retained window not dense at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

// TestJournalSinceAndTail covers the two query cursors.
func TestJournalSinceAndTail(t *testing.T) {
	j := NewJournal(32)
	for i := 0; i < 10; i++ {
		j.ClientRound(i, 0, &fl.Update{ClientID: i, Quarantined: true, CompletionTime: float64(i)})
	}
	since := j.Since(7)
	if len(since) != 3 || since[0].Seq != 8 {
		t.Fatalf("Since(7) = %+v, want seqs 8..10", since)
	}
	tail := j.Tail(4)
	if len(tail) != 4 || tail[0].Seq != 7 || tail[3].Seq != 10 {
		t.Fatalf("Tail(4) = %+v, want seqs 7..10", tail)
	}
	if got := j.Tail(100); len(got) != 10 {
		t.Fatalf("Tail(100) = %d events, want all 10", len(got))
	}
	if j.Tail(0) != nil {
		t.Fatal("Tail(0) must be nil")
	}
}

// TestClientTableAttribution checks accumulation, deterministic TopK ordering
// and the bounded-map overflow counter.
func TestClientTableAttribution(t *testing.T) {
	j := NewJournal(8)
	// Client 1: two rounds, one dropout; client 2: one heavy round.
	j.ClientRound(0, 0, &fl.Update{ClientID: 1, Iterations: 40, TrainTime: 4.0, UploadBytes: 1000, LinkRetries: 2})
	j.ClientRound(0, 0, &fl.Update{ClientID: 1, Iterations: 10, TrainTime: 1.0, UploadBytes: 200, Dropped: true})
	j.ClientRound(0, 0, &fl.Update{ClientID: 2, Iterations: 50, TrainTime: 9.0, UploadBytes: 5000, Quarantined: true})
	tbl := j.Clients()
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	top, err := tbl.TopK(0, "compute")
	if err != nil || len(top) != 2 || top[0].Client != 2 || top[1].Client != 1 {
		t.Fatalf("TopK(compute) order = %+v", top)
	}
	c1 := top[1]
	if c1.Rounds != 2 || c1.Iterations != 50 || c1.ComputeSec != 5.0 ||
		c1.UplinkBytes != 1200 || c1.LinkRetries != 2 || c1.Dropouts != 1 || c1.Quarantines != 0 {
		t.Fatalf("client 1 stats = %+v", c1)
	}
	if top[0].Quarantines != 1 {
		t.Fatalf("client 2 quarantines = %d, want 1", top[0].Quarantines)
	}
	if k, err := tbl.TopK(1, "retries"); err != nil || len(k) != 1 || k[0].Client != 1 {
		t.Fatalf("TopK(1, retries) = %+v, want client 1", k)
	}
	// Ties break by ascending client ID; no key means compute.
	j2 := NewJournal(8)
	j2.ClientRound(0, 0, &fl.Update{ClientID: 5, Iterations: 1, TrainTime: 1, UploadBytes: 1})
	j2.ClientRound(0, 0, &fl.Update{ClientID: 3, Iterations: 1, TrainTime: 1, UploadBytes: 1})
	tied, err := j2.Clients().TopK(0, "")
	if err != nil || tied[0].Client != 3 || tied[1].Client != 5 {
		t.Fatalf("tie break not by client ID: %+v, %v", tied, err)
	}
	// An unknown key is an error naming the valid ones, table or no table.
	for _, tbl := range []*ClientTable{j2.Clients(), nil} {
		if got, err := tbl.TopK(0, "nonsense-key"); got != nil || err == nil || !strings.Contains(err.Error(), "quarantines") {
			t.Fatalf("TopK(nonsense-key) = %+v, %v; want an error listing the keys", got, err)
		}
	}
}

// TestClientTableBound verifies the attribution map never grows past its
// bound: overflow observations land in Untracked instead.
func TestClientTableBound(t *testing.T) {
	j := NewJournal(8)
	for c := 0; c < clientTableBound+100; c++ {
		j.ClientRound(0, 0, &fl.Update{ClientID: c, Iterations: 1, TrainTime: 1, UploadBytes: 1})
	}
	tbl := j.Clients()
	if tbl.Len() != clientTableBound {
		t.Fatalf("Len = %d, want bound %d", tbl.Len(), clientTableBound)
	}
	if tbl.Untracked() != 100 {
		t.Fatalf("Untracked = %d, want 100", tbl.Untracked())
	}
	// Known clients keep accumulating after the bound is hit.
	j.ClientRound(0, 0, &fl.Update{ClientID: 0, Iterations: 1, TrainTime: 1, UploadBytes: 1})
	if got, _ := tbl.TopK(1, "iterations"); got[0].Client != 0 || got[0].Iterations != 2 {
		t.Fatalf("post-bound accumulation broken: %+v", got[0])
	}
}

// TestJournalEventTypes spot-checks each emitter's rendered event.
func TestJournalEventTypes(t *testing.T) {
	j := NewJournal(64)
	meta := fl.RoundMeta{Fleet: 100, Cohort: 10, Materialized: 12, Recycled: 5}
	j.RoundDone(fl.RoundRecord{Index: 1, End: 10, Collected: 8, Quarantined: 1, Dropped: 2}, meta)
	j.RoundDone(fl.RoundRecord{Index: 2, End: 20, Dropped: 9, Skipped: true}, meta)
	j.ClientRound(1, 0, &fl.Update{ClientID: 4, Quarantined: true, CompletionTime: 9.5})
	j.ClientRound(1, 0, &fl.Update{ClientID: 5, Iterations: 17, Dropped: true, Anchor: true, TrainEnd: 8.0})
	j.ClientRound(1, 0, &fl.Update{ClientID: 3, Chaos: &chaos.Plan{Down: []chaos.LinkWindow{{From: 1, To: 2, Scale: 0}}}})
	j.CapChange(0, 1)
	j.PhaseStart(2, "storm", "storm:rounds=50")
	j.PhaseEnd(2, "storm", "0123456789abcdef0123")
	j.Violation("heap", "storm", 150, "slope too steep")
	events := j.Since(0)
	wantTypes := []string{
		EvRound, EvCohort, EvRoundSkip, EvCohort, EvQuarantine, EvDropout, EvAnchorAbort,
		EvImpairment, EvCapChange,
		EvPhaseStart, EvPhaseEnd, EvViolation,
	}
	if len(events) != len(wantTypes) {
		t.Fatalf("got %d events, want %d", len(events), len(wantTypes))
	}
	for i, e := range events {
		if e.Type != wantTypes[i] {
			t.Fatalf("event %d type = %q, want %q", i, e.Type, wantTypes[i])
		}
	}
	checks := map[string]string{
		EvRound:      "collected=8 quarantined=1 dropped=2",
		EvCohort:     "fleet=100 cohort=10 materialized=12 recycled=5",
		EvDropout:    "after 17 iterations",
		EvCapChange:  "cap 0 -> 1",
		EvPhaseStart: "phase 2 (storm)",
		EvViolation:  "[heap] storm: slope too steep",
	}
	for _, e := range events {
		if want, ok := checks[e.Type]; ok {
			if !strings.Contains(e.Detail, want) {
				t.Fatalf("%s detail = %q, want substring %q", e.Type, e.Detail, want)
			}
		}
	}
	// Long fingerprints are truncated so details stay bounded.
	for _, e := range events {
		if e.Type == EvPhaseEnd && !strings.HasSuffix(e.Detail, "fingerprint 0123456789abcdef") {
			t.Fatalf("phase-end fingerprint not truncated to 16: %q", e.Detail)
		}
	}
}

// TestNilJournalSafe proves the disabled journal is inert end to end.
func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	j.RoundDone(fl.RoundRecord{}, fl.RoundMeta{})
	j.ClientRound(0, 0, &fl.Update{ClientID: 1, Iterations: 1, TrainTime: 1, UploadBytes: 1})
	if j.LastSeq() != 0 || j.Since(0) != nil || j.Tail(5) != nil || j.Clients() != nil {
		t.Fatal("nil journal must be inert")
	}
	if seq, err := j.WriteSince(&failingWriter{failAt: 1}, 7); seq != 7 || err != nil {
		t.Fatalf("nil journal WriteSince = %d, %v; want 7, nil", seq, err)
	}
	var tbl *ClientTable
	if top, err := tbl.TopK(3, "compute"); tbl.Len() != 0 || tbl.Untracked() != 0 || top != nil || err != nil {
		t.Fatal("nil client table must be inert")
	}
}

// failingWriter fails its failAt-th write (1-based) and keeps the others.
type failingWriter struct {
	failAt, calls int
	lines         []string
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.failAt {
		return 0, errors.New("disk full")
	}
	w.lines = append(w.lines, string(p))
	return len(p), nil
}

// TestJournalWriteSince pins the JSON-lines drain fedca-sim -events and the
// soak share: events after the cursor, one JSON line each, the cursor moved
// to the last one; a failed write is reported as the first error and does
// not stop the events after it.
func TestJournalWriteSince(t *testing.T) {
	j := NewJournal(0)
	for i := 0; i < 4; i++ {
		j.record(Event{Type: EvRound, Round: i, VTime: float64(i)})
	}
	w := &failingWriter{failAt: 2}
	seq, err := j.WriteSince(w, 1)
	if seq != 4 || err == nil || err.Error() != "disk full" {
		t.Fatalf("WriteSince = %d, %v; want 4 and the write error", seq, err)
	}
	if len(w.lines) != 2 {
		t.Fatalf("wrote %d lines, want 2 (events 2 and 4; event 3's write failed)", len(w.lines))
	}
	for i, want := range []uint64{2, 4} {
		var e Event
		if err := json.Unmarshal([]byte(w.lines[i]), &e); err != nil || e.Seq != want || !strings.HasSuffix(w.lines[i], "}\n") {
			t.Fatalf("line %d = %q (%v), want event %d as one JSON line", i, w.lines[i], err, want)
		}
	}
	if seq, err := j.WriteSince(w, seq); seq != 4 || err != nil {
		t.Fatalf("drained journal: WriteSince = %d, %v; want 4, nil", seq, err)
	}
}

// TestJournalEventFields pins the per-event fields /events and -events emit.
func TestJournalEventFields(t *testing.T) {
	j := NewJournal(8)
	j.ClientRound(3, 0, &fl.Update{ClientID: 5, Iterations: 17, Dropped: true, TrainEnd: 12.5})
	ev := j.Since(0)[0]
	if ev.Seq != 1 || ev.Type != EvDropout || ev.Round != 3 || ev.Client != 5 || ev.VTime != 12.5 {
		t.Fatalf("event fields = %+v", ev)
	}
}
