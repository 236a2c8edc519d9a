package telemetry

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_counter_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters never decrease
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := reg.Gauge("test_gauge", "a gauge")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	// Nil handles are inert.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Inc()
	ng.Set(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatal("nil metric handles must read zero")
	}
}

func TestHistogramBasics(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", "durations", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+3+100; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	want := []uint64{2, 1, 1, 1} // ≤1, ≤2, ≤4, +Inf
	got := h.bucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := expBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalFloats(exp, want) {
		t.Fatalf("expBuckets = %v, want %v", exp, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	reg.Counter("dup_total", "second")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	reg.Counter("9bad name", "nope")
}

func TestSameNameDifferentLabelsAllowed(t *testing.T) {
	reg := NewRegistry()
	up := reg.Counter("dir_bytes_total", "bytes", Label{"direction", "up"})
	down := reg.Counter("dir_bytes_total", "bytes", Label{"direction", "down"})
	up.Add(1)
	down.Add(2)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE dir_bytes_total counter") != 1 {
		t.Fatalf("TYPE line must appear exactly once:\n%s", out)
	}
	if !strings.Contains(out, `dir_bytes_total{direction="down"} 2`) ||
		!strings.Contains(out, `dir_bytes_total{direction="up"} 1`) {
		t.Fatalf("missing labelled samples:\n%s", out)
	}
}

// promLine matches one sample line of the text exposition format: a metric
// name, an optional label set (escaped values), and a float value.
var promLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*\})? (\S+)$`)

// parseProm validates Prometheus text output line by line and returns the
// number of sample lines.
func parseProm(t *testing.T, out string) int {
	t.Helper()
	samples := 0
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not a valid exposition sample: %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(m[len(m)-1], 64); err != nil {
			t.Fatalf("line %d: value does not parse: %q", i+1, line)
		}
		samples++
	}
	return samples
}

func TestPromExpositionParses(t *testing.T) {
	s := New()
	s.Rounds.Inc()
	s.IterSeconds.Observe(0.25)
	s.UplinkBytes.Add(1e6)
	var b strings.Builder
	if err := s.Registry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if n := parseProm(t, b.String()); n == 0 {
		t.Fatal("no samples rendered")
	}
}

func TestPromLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("escaped_gauge", `help with \ backslash
and newline`, Label{"path", "a\\b\"c\nd"})
	g.Set(1)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The raw control characters must not survive into the sample line.
	if want := `escaped_gauge{path="a\\b\"c\nd"} 1`; !strings.Contains(out, want) {
		t.Fatalf("escaped sample missing; want %q in:\n%s", want, out)
	}
	if want := `# HELP escaped_gauge help with \\ backslash\nand newline`; !strings.Contains(out, want) {
		t.Fatalf("escaped help missing; want %q in:\n%s", want, out)
	}
	parseProm(t, out)
}

func TestSnapshotJSON(t *testing.T) {
	s := New()
	s.Rounds.Add(3)
	s.Accuracy.Set(0.5)
	s.RoundSeconds.Observe(12)
	snap := s.Registry().Snapshot()
	byName := map[string]MetricSnapshot{}
	for _, m := range snap {
		byName[m.Name+labelKey(labelsOf(m))] = m
	}
	if m := byName["fedca_rounds_total"]; m.Kind != "counter" || m.Value != 3 {
		t.Fatalf("rounds snapshot = %+v", m)
	}
	if m := byName["fedca_accuracy"]; m.Kind != "gauge" || m.Value != 0.5 {
		t.Fatalf("accuracy snapshot = %+v", m)
	}
	if m := byName["fedca_round_seconds"]; m.Kind != "histogram" || m.Count != 1 || m.Sum != 12 {
		t.Fatalf("histogram snapshot = %+v", m)
	}
}

func labelsOf(m MetricSnapshot) []Label {
	out := make([]Label, 0, len(m.Labels))
	for k, v := range m.Labels {
		out = append(out, Label{k, v})
	}
	return out
}

func TestQuantileBasics(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in (1, 2]
	}
	q := h.Quantile(0.5)
	if q < 1 || q > 2 {
		t.Fatalf("median = %v, want within bucket (1, 2]", q)
	}
	h2 := newHistogram([]float64{1})
	h2.Observe(100) // overflow bucket
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want last finite edge 1", got)
	}
}
