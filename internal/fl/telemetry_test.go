package fl_test

import (
	"bytes"
	"reflect"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/runlog"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
)

// TestTelemetryInert is the determinism contract for the observability layer:
// attaching a telemetry sink and an event journal must not change a run in
// any observable way. A chaos-enabled run with both must produce a
// byte-identical run log, whose records carry the global model's digest,
// versus the same seed with telemetry off — the observability layer consumes
// no RNG draws and performs no virtual-time arithmetic.
func TestTelemetryInert(t *testing.T) {
	run := func(sink *telemetry.Sink, journal *telemetry.Journal) ([]byte, fl.RunStats) {
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
		w := tinyWorkload()
		w.FL.Chaos = eng
		if sink != nil {
			w.FL.Observers = []fl.Observer{sink, journal}
		}
		tb := expcfg.Build(w, 6, trace.PaperConfig(), 50)
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		lw := runlog.NewWriter(&buf)
		if err := lw.WriteHeader(runlog.Header{
			Spec: "model=cnn;scheme=fedavg;clients=6;seed=50;chaos=drop=0.3,slow=0.5",
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := lw.WriteRound(r.RunRound().RoundRecord); err != nil {
				t.Fatal(err)
			}
		}
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), r.Stats()
	}

	sink := telemetry.New()
	journal := telemetry.NewJournal(512)
	offLog, offStats := run(nil, nil)
	onLog, onStats := run(sink, journal)

	if !bytes.Equal(offLog, onLog) {
		t.Fatalf("run log differs with telemetry attached:\n--- off ---\n%s\n--- on ---\n%s", offLog, onLog)
	}
	if !reflect.DeepEqual(offStats, onStats) {
		t.Fatalf("run stats differ: %+v vs %+v", offStats, onStats)
	}

	// Guard against a vacuous pass: the sink must actually have recorded the
	// run it observed.
	if got := sink.Rounds.Value(); got != 3 {
		t.Fatalf("sink saw %v rounds, want 3", got)
	}
	if sink.IterSeconds.Count() == 0 {
		t.Fatal("sink recorded no iterations")
	}
	if sink.Tracer().Len() == 0 {
		t.Fatal("sink recorded no spans")
	}
	if sink.UplinkBytes.Value() == 0 {
		t.Fatal("sink recorded no uplink traffic")
	}
	// Same guard for the journal: the inert run must still have filled it.
	events := journal.Since(0)
	if len(events) == 0 {
		t.Fatal("journal recorded no events")
	}
	rounds := 0
	for _, e := range events {
		if e.Type == telemetry.EvRound || e.Type == telemetry.EvRoundSkip {
			rounds++
		}
	}
	if rounds != 3 {
		t.Fatalf("journal saw %d round events, want 3", rounds)
	}
	if journal.Clients().Len() == 0 {
		t.Fatal("journal attributed no client-rounds")
	}
}
