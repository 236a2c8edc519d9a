package runlog

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"fedca/internal/fl"
)

func sampleResult(round int, start, end, acc float64) fl.RoundResult {
	return fl.RoundResult{
		Round: round, Start: start, End: end, Accuracy: acc,
		Collected: []fl.Update{
			{ClientID: 0, UploadBytes: 100},
			{ClientID: 1, UploadBytes: 150},
		},
		Discarded: []fl.Update{
			{ClientID: 2, UploadBytes: 50, Dropped: true},
		},
		MeanIterations: 9.5,
	}
}

func TestRoundTripBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(Header{Spec: "v=1;model=cnn;scheme=fedca;clients=3;iters=10;seed=42;alpha=0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRound(sampleResult(0, 0, 12.5, 0.4)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRound(sampleResult(1, 12.5, 20, 0.6)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	run, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run.Header.Kind != "header" || run.Header.Spec != "v=1;model=cnn;scheme=fedca;clients=3;iters=10;seed=42;alpha=0.1" {
		t.Fatalf("header = %+v", run.Header)
	}
	if len(run.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(run.Rounds))
	}
	r0 := run.Rounds[0]
	if r0.Collected != 2 || r0.Discarded != 1 || r0.Dropped != 1 {
		t.Fatalf("counts wrong: %+v", r0)
	}
	if r0.UploadBytes != 300 {
		t.Fatalf("upload bytes = %v", r0.UploadBytes)
	}
	if r0.MeanIterations != 9.5 {
		t.Fatalf("iters = %v", r0.MeanIterations)
	}
}

func TestRoundTripFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(Header{Spec: "model=lstm;scheme=fedavg"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRound(sampleResult(0, 0, 5, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if run.Header.Spec != "model=lstm;scheme=fedavg" || len(run.Rounds) != 1 {
		t.Fatalf("run = %+v", run)
	}
}

func TestAccuracyCurve(t *testing.T) {
	run := &Run{Rounds: []Record{
		{Start: 100, End: 110, Accuracy: 0.3},
		{Start: 110, End: 130, Accuracy: 0.5},
	}}
	ts, as := run.AccuracyCurve()
	if ts[0] != 10 || ts[1] != 30 || as[1] != 0.5 {
		t.Fatalf("curve = %v %v", ts, as)
	}
	empty := &Run{}
	if ts, _ := empty.AccuracyCurve(); ts != nil {
		t.Fatal("empty curve must be nil")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Read(strings.NewReader(`{"kind":"mystery"}` + "\n")); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	input := `{"kind":"header","model":"cnn"}` + "\n\n" + `{"kind":"round","round":0,"end":1}` + "\n"
	run, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Rounds) != 1 {
		t.Fatalf("rounds = %d", len(run.Rounds))
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("expected error")
	}
}

func TestInfinityNotEmitted(t *testing.T) {
	// A dropped-only discarded list still serializes (no Inf fields leak
	// into the JSON: CompletionTime is not logged).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	res := sampleResult(0, 0, 1, 0.1)
	res.Discarded[0].CompletionTime = math.Inf(1)
	if err := w.WriteRound(res); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Inf") {
		t.Fatal("infinity leaked into JSON")
	}
}
