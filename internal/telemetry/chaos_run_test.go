package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
)

// TestSinkAndJournalRenderChaosRun attaches a sink and a journal to a
// three-round simulation under every chaos fault class and reads back what
// they rendered from the runner's record walk: the round counter and the
// runtime gauges in the Prometheus exposition, a valid Chrome trace, the
// journal's round events in ascending Seq, and the attribution table in
// compute order. The introspect package serves these same values over HTTP.
func TestSinkAndJournalRenderChaosRun(t *testing.T) {
	w := expcfg.CNN()
	w.Img.Height, w.Img.Width = 8, 8
	w.Wrn.Image = w.Img
	w.Img.Classes = 4
	w.FL.BaseIterTime = 0.1
	w.FL.ModelBytes = 0
	w.FL.LocalIters, w.FL.BatchSize = 8, 16
	w.TrainN, w.TestN = 256, 128
	eng, err := chaos.NewEngine(chaos.Config{
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
	w.FL.Chaos = eng
	sink, journal := telemetry.New(), telemetry.NewJournal(256)
	w.FL.Observers = []fl.Observer{sink, journal}
	runner, err := expcfg.Build(w, 6, trace.PaperConfig(), 50).NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		runner.RunRound()
	}

	sink.Health().Refresh()
	var prom bytes.Buffer
	if err := sink.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE fedca_rounds_total counter", "fedca_rounds_total 3", "fedca_runtime_goroutines", "fedca_runtime_gomaxprocs"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, prom.String())
		}
	}
	var tr bytes.Buffer
	if err := sink.Tracer().WriteChromeTrace(&tr); err != nil || !json.Valid(tr.Bytes()) || sink.Tracer().Len() == 0 {
		t.Fatalf("chrome trace: %d spans, err %v, valid JSON %v", sink.Tracer().Len(), err, json.Valid(tr.Bytes()))
	}

	events := journal.Since(0)
	rounds := 0
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("events not ascending at %d: %+v", i, events)
		}
		if e.Type == telemetry.EvRound || e.Type == telemetry.EvRoundSkip {
			rounds++
		}
	}
	if rounds != 3 || journal.LastSeq() != events[len(events)-1].Seq {
		t.Fatalf("journal: %d round events (want 3), last_seq %d, newest event %+v", rounds, journal.LastSeq(), events[len(events)-1])
	}
	top, err := journal.Clients().TopK(3, "")
	if err != nil || len(top) == 0 || len(top) > 3 {
		t.Fatalf("TopK(3) = %+v, %v", top, err)
	}
	for i := 1; i < len(top); i++ {
		if top[i].ComputeSec > top[i-1].ComputeSec {
			t.Fatalf("clients not sorted by compute desc: %+v", top)
		}
	}
}
