// Package telemetry is the simulator's live observability layer: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms, exposable in Prometheus text format and as JSON), span-based
// tracing of the simulation keyed on virtual sim time (exportable as Chrome
// trace-event JSON, so a whole run opens in Perfetto or chrome://tracing),
// and the state the HTTP introspection surface (package fedca/introspect)
// serves. The package imports no network stack.
//
// # Determinism contract
//
// Telemetry observes the simulation; it never participates in it. An enabled
// sink consumes no RNG draws and performs no virtual-time arithmetic of its
// own — every recorded value is computed by the simulator whether or not a
// sink is attached — so a run with telemetry on is bit-identical to the same
// seed with telemetry off (TestTelemetryInert in internal/fl). A disabled
// sink is a nil pointer: every hot-path entry point is nil-safe and costs
// zero allocations (TestDisabledTelemetryZeroAllocs).
//
// # Concurrency
//
// Counters, gauges and histograms update with atomic operations and may be
// hammered from any number of worker goroutines; the registry and tracer use
// short critical sections. Exposition (WriteProm, Snapshot, WriteChromeTrace)
// is safe concurrently with updates and yields a consistent-enough view for
// monitoring (individual metrics are atomically read; cross-metric skew is
// possible, as in any live metrics system).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric instance.
type Label struct {
	Name, Value string
}

// Counter is a monotonically non-decreasing float64. The zero value is
// usable; all methods are nil-safe no-ops so disabled telemetry costs one
// predicted branch.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter. Non-positive deltas are ignored (Prometheus
// counters never decrease).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous float64 value. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: len(edges) finite upper bounds
// plus an implicit +Inf overflow bucket. Observe is allocation-free.
type Histogram struct {
	edges  []float64       // sorted, strictly increasing upper bounds
	counts []atomic.Uint64 // len(edges)+1; last is the overflow bucket
	sum    Gauge           // sum of observations (atomic float)
	count  atomic.Uint64
}

// newHistogram validates the edges and builds a histogram.
func newHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("telemetry: histogram needs at least one bucket edge")
	}
	for i, e := range edges {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			panic("telemetry: histogram edges must be finite")
		}
		if i > 0 && e <= edges[i-1] {
			panic("telemetry: histogram edges must be strictly increasing")
		}
	}
	return &Histogram{
		edges:  append([]float64(nil), edges...),
		counts: make([]atomic.Uint64, len(edges)+1),
	}
}

// expBuckets returns n exponentially spaced edges: start, start·factor, …
func expBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: expBuckets wants start > 0, factor > 1, n >= 1")
	}
	edges := make([]float64, n)
	v := start
	for i := range edges {
		edges[i] = v
		v *= factor
	}
	return edges
}

// Observe records one value. NaN is ignored. Nil-safe, allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first edge >= v.
	lo, hi := 0, len(h.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Edges returns the finite bucket upper bounds (read-only).
func (h *Histogram) Edges() []float64 { return h.edges }

// bucketCounts returns a snapshot of the per-bucket counts, the last entry
// being the +Inf overflow bucket.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

type metric struct {
	name, help string
	kind       metricKind
	labels     []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metric instances and renders them in Prometheus text
// exposition format or as JSON. Registration is cheap but not hot-path;
// callers hold the returned handles.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a counter. Panics on an invalid or duplicate
// (name, labels) pair.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: counterKind, labels: labels, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: gaugeKind, labels: labels, gauge: g})
	return g
}

// Histogram registers and returns a fixed-bucket histogram with the given
// finite upper bounds (an +Inf overflow bucket is implicit).
func (r *Registry) Histogram(name, help string, edges []float64, labels ...Label) *Histogram {
	h := newHistogram(edges)
	r.register(&metric{name: name, help: help, kind: histogramKind, labels: labels, hist: h})
	return h
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func labelKey(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (r *Registry) register(m *metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", m.name))
	}
	for _, l := range m.labels {
		if !validName(l.Name) || strings.Contains(l.Name, ":") {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := labelKey(m.labels)
	for _, ex := range r.metrics {
		if ex.name == m.name && ex.kind != m.kind {
			panic(fmt.Sprintf("telemetry: metric %q registered with two kinds", m.name))
		}
		if ex.name == m.name && labelKey(ex.labels) == key {
			panic(fmt.Sprintf("telemetry: duplicate metric %q{%s}", m.name, key))
		}
	}
	r.metrics = append(r.metrics, m)
	sort.SliceStable(r.metrics, func(a, b int) bool {
		if r.metrics[a].name != r.metrics[b].name {
			return r.metrics[a].name < r.metrics[b].name
		}
		return labelKey(r.metrics[a].labels) < labelKey(r.metrics[b].labels)
	})
}

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// labelString renders {a="x",b="y"} with base labels plus any extras, or ""
// when empty.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm renders every registered metric in Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	lastName := ""
	for _, m := range metrics {
		if m.name != lastName {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, escapeHelp(m.help), m.name, m.kind); err != nil {
				return err
			}
			lastName = m.name
		}
		switch m.kind {
		case counterKind:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, labelString(m.labels), formatValue(m.counter.Value())); err != nil {
				return err
			}
		case gaugeKind:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, labelString(m.labels), formatValue(m.gauge.Value())); err != nil {
				return err
			}
		case histogramKind:
			counts := m.hist.bucketCounts()
			var cum uint64
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(m.hist.edges) {
					le = formatValue(m.hist.edges[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, labelString(m.labels, Label{"le", le}), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, labelString(m.labels), formatValue(m.hist.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelString(m.labels), m.hist.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// MetricSnapshot is one metric's JSON-ready state.
type MetricSnapshot struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Edges   []float64         `json:"edges,omitempty"`
	Buckets []uint64          `json:"buckets,omitempty"`
}

// Snapshot returns every metric's current state, sorted by (name, labels).
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Kind: m.kind.String()}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Name] = l.Value
			}
		}
		switch m.kind {
		case counterKind:
			s.Value = m.counter.Value()
		case gaugeKind:
			s.Value = m.gauge.Value()
		case histogramKind:
			s.Count = m.hist.Count()
			s.Sum = m.hist.Sum()
			s.Edges = m.hist.Edges()
			s.Buckets = m.hist.bucketCounts()
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON renders the snapshot as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Snapshot())
}
