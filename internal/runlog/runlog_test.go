package runlog

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"fedca/internal/fl"
)

func sampleRecord(round int, start, end, acc float64) Record {
	return Record{
		Index: round, Start: start, End: end, Accuracy: acc,
		Collected: 2, Discarded: 1, Dropped: 1,
		MeanIterations: 9.5, UploadBytes: 300,
		Params: fl.Digest{0: 0xa6, 31: 0xb5},
	}
}

func TestRoundTripBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(Header{Spec: "v=1;model=cnn;scheme=fedca;clients=3;iters=10;seed=42;alpha=0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRound(sampleRecord(0, 0, 12.5, 0.4)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRound(sampleRecord(1, 12.5, 20, 0.6)); err != nil {
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
	if r0 != sampleRecord(0, 0, 12.5, 0.4) {
		t.Fatalf("record changed in a round trip: %+v", r0)
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
	if err := w.WriteRound(sampleRecord(0, 0, 5, 0.2)); err != nil {
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

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Read(strings.NewReader(`{"kind":"mystery"}` + "\n")); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	for _, params := range []string{`"a6"`, `"` + strings.Repeat("a6", 33) + `"`, `"` + strings.Repeat("g6", 32) + `"`} {
		if _, err := Read(strings.NewReader(`{"kind":"round","round":0,"params":` + params + "}\n")); err == nil {
			t.Fatalf("params %s is not a digest, yet the record was read", params)
		}
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
	// JSON has no infinity: a record holding one is an error, not a line.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := sampleRecord(0, 0, 1, 0.1)
	rec.End = math.Inf(1)
	if err := w.WriteRound(rec); err == nil {
		t.Fatal("a record with an infinite end time was written")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Inf") {
		t.Fatal("infinity leaked into JSON")
	}
}
