package telemetry

// The journal is the simulator's flight recorder: a fixed-capacity ring
// buffer of structured events with monotonic sequence numbers. Where the
// metrics registry answers "how much" and the soak monitors answer "did an
// invariant break", the journal answers "what exactly happened just before it
// broke": round skips, quarantines, dropouts, anchor aborts, chaos impairment
// windows, CPU-token cap changes, soak phase transitions and monitor
// violations, in order.
//
// Like the Sink, a nil *Journal is the disabled state: every recording entry
// point is nil-safe and allocation-free, so instrumented code needs no build
// flags, and the journal is observational only — it consumes no RNG draws and
// performs no virtual-time arithmetic, so enabling it never changes a run
// (TestTelemetryInert covers the journal alongside the metrics sink).
//
// One mutex guards the ring and the sequence counter, and an event gets its
// Seq under that mutex. So every query sees a snapshot: the events it returns
// are dense in Seq, ascending, and no event below the newest one returned can
// appear later.

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"fedca/internal/chaos"
	"fedca/internal/fl"
)

// Event types recorded by the journal. The set mirrors the simulator's
// degradation and execution machinery; new types may be added freely (the
// journal is schemaless beyond the Event struct).
const (
	EvRound       = "round"         // round completed and aggregated
	EvRoundSkip   = "round-skipped" // round closed below quorum, model unchanged
	EvCohort      = "cohort"        // one round's cohort lifecycle: sizes, slot pool, upload bytes
	EvQuarantine  = "quarantine"    // one update rejected by validation
	EvDropout     = "dropout"       // one client vanished mid-round
	EvAnchorAbort = "anchor-abort"  // a half-recorded anchor profile was discarded
	EvImpairment  = "impairment"    // chaos installed a link impairment window
	EvCapChange   = "cputok-cap"    // the CPU-token budget's capacity changed
	EvPhaseStart  = "soak-phase-start"
	EvPhaseEnd    = "soak-phase-end"
	EvViolation   = "soak-violation" // an invariant monitor fired
)

// Event is one journal entry. Seq is unique and strictly increasing in
// recording order; Client is -1 for server- or process-level events; VTime is
// the virtual sim time the event belongs to (0 when not applicable).
type Event struct {
	Seq    uint64  `json:"seq"`
	Type   string  `json:"type"`
	Round  int     `json:"round"`
	Client int     `json:"client"`
	VTime  float64 `json:"vtime"`
	Detail string  `json:"detail,omitempty"`
}

// Journal is the flight recorder. Build with NewJournal; a nil *Journal is
// the disabled state (all methods are nil-safe no-ops). Recording is safe
// from any goroutine.
type Journal struct {
	mu   sync.Mutex
	ring []Event // event seq lives in slot (seq-1) % len(ring)
	seq  uint64  // Seq of the newest event, 0 before the first

	clients ClientTable
}

// NewJournal builds a journal holding exactly the newest capacity events.
// capacity <= 0 selects the default of 4096.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 4096
	}
	j := &Journal{ring: make([]Event, capacity)}
	j.clients.init()
	return j
}

// LastSeq returns the sequence number of the most recent event (0 when empty
// or disabled).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Clients returns the journal's per-client attribution table (nil when the
// journal is disabled).
func (j *Journal) Clients() *ClientTable {
	if j == nil {
		return nil
	}
	return &j.clients
}

// record assigns the next sequence number and stores the event over the
// oldest one.
func (j *Journal) record(e Event) {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	j.ring[(j.seq-1)%uint64(len(j.ring))] = e
	j.mu.Unlock()
}

// Since returns every retained event with Seq > seq, in ascending sequence
// order. Since(0) returns the whole retained window.
func (j *Journal) Since(seq uint64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := uint64(len(j.ring))
	if j.seq > n && seq < j.seq-n {
		seq = j.seq - n
	}
	if seq >= j.seq {
		return nil
	}
	out := make([]Event, 0, j.seq-seq)
	for s := seq; s < j.seq; s++ {
		out = append(out, j.ring[s%n])
	}
	return out
}

// WriteSince streams every retained event with Seq > seq to w as JSON lines
// and returns the Seq of the last one (seq when there is none; a nil journal
// writes nothing). A failed write does not stop the stream: the events after
// it are still written and the first error is returned. An event that does
// not marshal (a non-finite VTime) is skipped.
func (j *Journal) WriteSince(w io.Writer, seq uint64) (uint64, error) {
	var first error
	for _, e := range j.Since(seq) {
		b, err := json.Marshal(e)
		if err != nil {
			continue
		}
		if _, err := w.Write(append(b, '\n')); err != nil && first == nil {
			first = err
		}
		seq = e.Seq
	}
	return seq, first
}

// Tail returns the newest n retained events in ascending sequence order.
func (j *Journal) Tail(n int) []Event {
	if j == nil || n <= 0 {
		return nil
	}
	all := j.Since(0)
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// RoundDone records one completed round (fl.Observer): its round event
// (skipped or aggregated; its quarantines and dropouts are recorded per
// client, by ClientRound), then its cohort event: the cohort size drawn
// from the fleet, the fleet's cumulative slot-pool counters (materializations
// and recycles; zero for static fleets, which never pool) and the round's
// total upload bytes, read from its record.
func (j *Journal) RoundDone(rec fl.RoundRecord, meta fl.RoundMeta) {
	if j == nil {
		return
	}
	typ := EvRound
	if rec.Skipped {
		typ = EvRoundSkip
	}
	j.record(Event{
		Type: typ, Round: rec.Index, Client: -1, VTime: rec.End,
		Detail: fmt.Sprintf("collected=%d quarantined=%d dropped=%d", rec.Collected, rec.Quarantined, rec.Dropped),
	})
	j.record(Event{
		Type: EvCohort, Round: rec.Index, Client: -1,
		Detail: fmt.Sprintf("fleet=%d cohort=%d materialized=%d recycled=%d upload_bytes=%.0f",
			meta.Fleet, meta.Cohort, meta.Materialized, meta.Recycled, rec.UploadBytes),
	})
}

// ClientRound (fl.Observer) records a client-round of round round, which
// began at start: its cost into the attribution table, then an event per
// chaos link window (downlink first; scale 0 is an outage), its quarantine,
// its dropout and the anchor profile the dropout aborted.
func (j *Journal) ClientRound(round int, start float64, u *fl.Update) {
	if j == nil {
		return
	}
	j.clients.observe(u.ClientID, u.Iterations, u.TrainTime, u.UploadBytes, u.LinkRetries, u.Dropped, u.Quarantined)
	if p := u.Chaos; p != nil {
		j.impairments(round, u.ClientID, "down", start, p.Down)
		j.impairments(round, u.ClientID, "up", start, p.Up)
	}
	if u.Quarantined {
		j.record(Event{Type: EvQuarantine, Round: round, Client: u.ClientID, VTime: u.CompletionTime})
	}
	if u.Dropped {
		after := fmt.Sprintf("after %d iterations", u.Iterations)
		j.record(Event{Type: EvDropout, Round: round, Client: u.ClientID, VTime: u.TrainEnd, Detail: after})
		if u.Anchor {
			j.record(Event{Type: EvAnchorAbort, Round: round, Client: u.ClientID, Detail: after})
		}
	}
}

// impairments records a link's chaos windows, relative to the round start.
func (j *Journal) impairments(round, client int, dir string, start float64, windows []chaos.LinkWindow) {
	for _, w := range windows {
		from, to := start+w.From, start+w.To
		j.record(Event{Type: EvImpairment, Round: round, Client: client, VTime: from,
			Detail: fmt.Sprintf("%slink %.3g-%.3gs scale %.3g", dir, from, to, w.Scale)})
	}
}

// CapChange records the process-wide CPU-token budget's capacity changing
// (0 means "track GOMAXPROCS"). Install via cputok.Default().SetCapHook.
func (j *Journal) CapChange(oldCap, newCap int) {
	if j == nil {
		return
	}
	j.record(Event{Type: EvCapChange, Round: -1, Client: -1,
		Detail: fmt.Sprintf("cap %d -> %d", oldCap, newCap)})
}

// PhaseStart records a soak phase beginning.
func (j *Journal) PhaseStart(index int, name, spec string) {
	if j == nil {
		return
	}
	j.record(Event{Type: EvPhaseStart, Round: -1, Client: -1,
		Detail: fmt.Sprintf("phase %d (%s) %s", index, name, spec)})
}

// PhaseEnd records a soak phase completing with its behavioural fingerprint.
func (j *Journal) PhaseEnd(index int, name, fingerprint string) {
	if j == nil {
		return
	}
	if len(fingerprint) > 16 {
		fingerprint = fingerprint[:16]
	}
	j.record(Event{Type: EvPhaseEnd, Round: -1, Client: -1,
		Detail: fmt.Sprintf("phase %d (%s) fingerprint %s", index, name, fingerprint)})
}

// Violation records an invariant monitor firing.
func (j *Journal) Violation(monitor, phase string, round int, detail string) {
	if j == nil {
		return
	}
	j.record(Event{Type: EvViolation, Round: round, Client: -1,
		Detail: fmt.Sprintf("[%s] %s: %s", monitor, phase, detail)})
}

// ClientStats is one client's accumulated cost attribution: how much it
// computed, shipped, retried and failed over the run. The per-client view is
// the diagnostic signal fleet-wide counters aggregate away — which clients
// skew, retry and drop.
type ClientStats struct {
	Client      int     `json:"client"`
	Rounds      int     `json:"rounds"` // client-rounds participated
	Iterations  int64   `json:"iterations"`
	ComputeSec  float64 `json:"compute_seconds"` // virtual local-training seconds
	UplinkBytes float64 `json:"uplink_bytes"`
	LinkRetries int64   `json:"link_retries"` // failed uplink transfer attempts (Update.LinkRetries)
	Dropouts    int64   `json:"dropouts"`
	Quarantines int64   `json:"quarantines"`
}

// clientTableBound caps how many distinct clients the attribution table
// tracks. Beyond it, new client IDs are counted in Untracked instead of
// growing the map — the table's memory is bounded regardless of fleet size.
const clientTableBound = 4096

// ClientTable is the journal's bounded per-client attribution map. Safe for
// concurrent use; a nil *ClientTable is the disabled state.
type ClientTable struct {
	mu        sync.Mutex
	m         map[int]*ClientStats
	untracked int64
}

func (t *ClientTable) init() { t.m = make(map[int]*ClientStats) }

func (t *ClientTable) observe(client, iterations int, computeSec, uplinkBytes float64, linkRetries int, dropped, quarantined bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[client]
	if !ok {
		if len(t.m) >= clientTableBound {
			t.untracked++
			return
		}
		s = &ClientStats{Client: client}
		t.m[client] = s
	}
	s.Rounds++
	s.Iterations += int64(iterations)
	s.ComputeSec += computeSec
	s.UplinkBytes += uplinkBytes
	s.LinkRetries += int64(linkRetries)
	if dropped {
		s.Dropouts++
	}
	if quarantined {
		s.Quarantines++
	}
}

// Untracked returns how many client-round observations were discarded because
// the table had reached its client bound.
func (t *ClientTable) Untracked() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.untracked
}

// Len returns the number of clients tracked.
func (t *ClientTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// clientSortKeys maps the /clients "sort" parameter to a stat extractor.
var clientSortKeys = map[string]func(*ClientStats) float64{
	"compute":     func(s *ClientStats) float64 { return s.ComputeSec },
	"iterations":  func(s *ClientStats) float64 { return float64(s.Iterations) },
	"bytes":       func(s *ClientStats) float64 { return s.UplinkBytes },
	"retries":     func(s *ClientStats) float64 { return float64(s.LinkRetries) },
	"dropouts":    func(s *ClientStats) float64 { return float64(s.Dropouts) },
	"quarantines": func(s *ClientStats) float64 { return float64(s.Quarantines) },
}

// TopK returns the k costliest clients under the named sort key ("compute",
// "iterations", "bytes", "retries", "dropouts", "quarantines"; "" means
// "compute", and any other key is an error naming the valid ones),
// descending, ties broken by ascending client ID so the extraction is
// deterministic. k <= 0 returns every tracked client.
func (t *ClientTable) TopK(k int, by string) ([]ClientStats, error) {
	if by == "" {
		by = "compute"
	}
	key, ok := clientSortKeys[by]
	if !ok {
		return nil, fmt.Errorf("unknown sort key %q (want one of %s)", by, strings.Join(slices.Sorted(maps.Keys(clientSortKeys)), ", "))
	}
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	out := make([]ClientStats, 0, len(t.m))
	for _, s := range t.m {
		out = append(out, *s)
	}
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		ka, kb := key(&out[a]), key(&out[b])
		if ka != kb {
			return ka > kb
		}
		return out[a].Client < out[b].Client
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
