package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Track identities of the simulation's trace. Thread id 0 is the server; the
// runner maps client c to track ClientTrack(c).
const serverTrack = 0

// ClientTrack returns the trace thread id of a client.
func ClientTrack(clientID int) int { return clientID + 1 }

// TraceEvent is one Chrome trace event. Timestamps are in microseconds of virtual
// sim time ("X" = complete span with a duration, "i" = instant, "M" =
// metadata). See the Trace Event Format spec; Perfetto and chrome://tracing
// both load the JSON object form.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

// Tracer accumulates spans and instant events of one run. Safe for
// concurrent use from worker goroutines; export order is deterministic
// (sorted by virtual time, then track, then name), so equal runs produce
// equal trace files regardless of goroutine interleaving.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
	names  map[int]string // track id → thread name metadata
}

// newTracer returns an empty tracer.
func newTracer() *Tracer { return &Tracer{names: make(map[int]string)} }

// NameTrack attaches a human-readable name to a track (rendered by trace
// viewers as the thread name). Idempotent.
func (t *Tracer) NameTrack(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[tid] = name
	t.mu.Unlock()
}

// Span records a complete span over [start, end] virtual seconds on a track.
// args may be nil; the map is retained, so callers must not mutate it after
// the call.
func (t *Tracer) Span(tid int, name, cat string, start, end float64, args map[string]any) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: start * 1e6, Dur: (end - start) * 1e6,
		TID: tid, Args: args,
	})
	t.mu.Unlock()
}

// Instant records a zero-duration event at ts virtual seconds on a track.
func (t *Tracer) Instant(tid int, name, cat string, ts float64, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i", TS: ts * 1e6,
		TID: tid, S: "t", Args: args,
	})
	t.mu.Unlock()
}

// Len returns the number of recorded events (metadata excluded).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a deterministically ordered copy of the recorded events,
// thread-name metadata first.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := append([]TraceEvent(nil), t.events...)
	names := make(map[int]string, len(t.names))
	for k, v := range t.names {
		names[k] = v
	}
	t.mu.Unlock()

	sort.SliceStable(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.TS != eb.TS {
			return ea.TS < eb.TS
		}
		if ea.TID != eb.TID {
			return ea.TID < eb.TID
		}
		if ea.Name != eb.Name {
			return ea.Name < eb.Name
		}
		return ea.Dur > eb.Dur // enclosing span before enclosed
	})

	tids := make([]int, 0, len(names))
	for tid := range names {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	meta := make([]TraceEvent, 0, len(tids))
	for _, tid := range tids {
		meta = append(meta, TraceEvent{
			Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]any{"name": names[tid]},
		})
	}
	return append(meta, events...)
}

// chromeTrace is the JSON object form of the trace file.
type chromeTrace struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the run as Chrome trace-event JSON. The output is
// deterministic for deterministic runs.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}
