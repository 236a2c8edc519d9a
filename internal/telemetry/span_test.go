package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerDeterministicOrder(t *testing.T) {
	build := func(order []int) *Tracer {
		tr := newTracer()
		tr.NameTrack(serverTrack, "server")
		tr.NameTrack(ClientTrack(0), "client 0")
		spans := [][2]float64{{0, 10}, {2, 5}, {0, 3}}
		for _, i := range order {
			tr.Span(ClientTrack(0), "s", "cat", spans[i][0], spans[i][1], nil)
		}
		tr.Instant(serverTrack, "tick", "cat", 1, nil)
		return tr
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	var bufA, bufB strings.Builder
	if err := a.WriteChromeTrace(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatalf("trace output depends on insertion order:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
}

func TestTracerNegativeDurationClamped(t *testing.T) {
	tr := newTracer()
	tr.Span(serverTrack, "s", "c", 5, 3, nil)
	ev := tr.Events()
	if len(ev) != 1 || ev[0].Dur != 0 {
		t.Fatalf("end < start must clamp to zero duration, got %+v", ev)
	}
}

// validateChromeTrace decodes Chrome trace-event JSON and checks the
// structural invariants trace viewers rely on. Shared with the end-to-end
// tests via export in export_test.go.
func validateChromeTrace(t *testing.T, data []byte) []TraceEvent {
	t.Helper()
	var tr struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if tr.TraceEvents == nil {
		t.Fatal("traceEvents array missing")
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}
	for i, e := range tr.TraceEvents {
		switch e.Ph {
		case "X", "i", "M":
		default:
			t.Fatalf("event %d: unexpected phase %q", i, e.Ph)
		}
		if e.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Fatalf("event %d: negative timestamp or duration: %+v", i, e)
		}
		if e.Ph == "M" {
			name, _ := e.Args["name"].(string)
			if e.Name != "thread_name" || name == "" {
				t.Fatalf("event %d: malformed metadata event %+v", i, e)
			}
		}
		if e.Ph == "i" && e.S != "t" {
			t.Fatalf("event %d: instant event without thread scope: %+v", i, e)
		}
	}
	return tr.TraceEvents
}

func TestWriteChromeTraceStructure(t *testing.T) {
	tr := newTracer()
	tr.NameTrack(serverTrack, "server")
	tr.NameTrack(ClientTrack(3), "client 3")
	tr.Span(serverTrack, "round", "round", 0, 12.5, map[string]any{"round": 0})
	tr.Span(ClientTrack(3), "local-training", "train", 0.5, 10, nil)
	tr.Instant(ClientTrack(3), "dropout", "chaos", 7, nil)

	var buf strings.Builder
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events := validateChromeTrace(t, []byte(buf.String()))
	if len(events) != 5 { // 2 metadata + 2 spans + 1 instant
		t.Fatalf("got %d events, want 5", len(events))
	}
	// Metadata must lead so viewers name tracks before content arrives.
	if events[0].Ph != "M" || events[1].Ph != "M" {
		t.Fatalf("metadata events must come first: %+v", events[:2])
	}
	// Virtual seconds are exported as microseconds.
	for _, e := range events {
		if e.Name == "round" && (e.TS != 0 || e.Dur != 12.5e6) {
			t.Fatalf("round span mis-scaled: %+v", e)
		}
		if e.Name == "dropout" && e.TS != 7e6 {
			t.Fatalf("instant mis-scaled: %+v", e)
		}
	}
}

func TestEmptyTracerWritesValidTrace(t *testing.T) {
	tr := newTracer()
	var buf strings.Builder
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, []byte(buf.String()))
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace must render an empty array, got %s", buf.String())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Span(0, "x", "c", 0, 1, nil)
	tr.Instant(0, "x", "c", 0, nil)
	tr.NameTrack(0, "x")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
}
