package telemetry

// The runtime-health bridge feeds process-wide state — the Go runtime's
// goroutine count, heap occupancy and GC activity, and the CPU-token budget's
// tokens in flight — into a run's metrics registry as fedca_runtime_* and
// fedca_cputok_inflight gauges, so the one /metrics surface answers both
// "what is the simulation doing" and "is the process itself healthy". Unlike
// the simulation metrics, these gauges are refreshed lazily on scrape (the
// mux calls Refresh before exposition), so an idle registry costs nothing,
// a scraped one pays one runtime/metrics read per request, and any number of
// sinks read the same process state.

import (
	"math"
	"runtime"
	rtm "runtime/metrics"

	"fedca/internal/cputok"
)

// runtimeSamples names the runtime/metrics values the bridge exposes. Each
// maps to one gauge; metrics the running Go version does not provide are
// skipped at construction (KindBad), never scraped.
var runtimeSamples = []struct {
	metric, gauge, help string
}{
	{"/sched/goroutines:goroutines", "fedca_runtime_goroutines", "Live goroutines in the process."},
	{"/memory/classes/heap/objects:bytes", "fedca_runtime_heap_objects_bytes", "Bytes occupied by live and dead heap objects."},
	{"/memory/classes/total:bytes", "fedca_runtime_memory_total_bytes", "All memory mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "fedca_runtime_gc_cycles_total", "Completed GC cycles since process start."},
	{"/sched/pauses/total/gc:seconds", "fedca_runtime_gc_pause_seconds_total", "Cumulative stop-the-world pause time from the GC."},
}

// RuntimeHealth mirrors runtime/metrics into a registry. Every sink builds
// one (Sink.Health); a nil *RuntimeHealth is the disabled state.
type RuntimeHealth struct {
	samples  []rtm.Sample
	gauges   []*Gauge
	inflight *Gauge
	cpus     *Gauge
}

// newRuntimeHealth registers the fedca_cputok_inflight and fedca_runtime_*
// gauges in reg (nil reg disables) and returns the refresher the mux drives
// on scrape.
func newRuntimeHealth(reg *Registry) *RuntimeHealth {
	if reg == nil {
		return nil
	}
	descs := rtm.All()
	known := make(map[string]bool, len(descs))
	for _, d := range descs {
		known[d.Name] = true
	}
	h := &RuntimeHealth{
		inflight: reg.Gauge("fedca_cputok_inflight", "CPU tokens currently held process-wide (admitted cells plus borrowed nested workers)."),
		cpus:     reg.Gauge("fedca_runtime_gomaxprocs", "GOMAXPROCS at the last scrape."),
	}
	for _, s := range runtimeSamples {
		if !known[s.metric] {
			continue
		}
		h.samples = append(h.samples, rtm.Sample{Name: s.metric})
		h.gauges = append(h.gauges, reg.Gauge(s.gauge, s.help))
	}
	h.Refresh()
	return h
}

// Refresh re-reads the runtime metrics and the tokens in flight into their
// gauges. Safe from any goroutine; nil-safe.
func (h *RuntimeHealth) Refresh() {
	if h == nil {
		return
	}
	h.inflight.Set(float64(cputok.Default().Inflight()))
	h.cpus.Set(float64(runtime.GOMAXPROCS(0)))
	rtm.Read(h.samples)
	for i := range h.samples {
		switch v := h.samples[i].Value; v.Kind() {
		case rtm.KindUint64:
			h.gauges[i].Set(float64(v.Uint64()))
		case rtm.KindFloat64:
			h.gauges[i].Set(v.Float64())
		case rtm.KindFloat64Histogram:
			// Pause distributions: operators watch the running total, so
			// fold bucket counts at bucket midpoints — a bounded-error,
			// monotone estimate that serves as a health gauge.
			h.gauges[i].Set(histogramTotal(v.Float64Histogram()))
		}
	}
}

// histogramTotal estimates the cumulative sum of a runtime float64 histogram
// by folding bucket counts at bucket midpoints (clamping the open-ended
// outermost buckets to their finite edge).
func histogramTotal(h *rtm.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, 0) {
			mid = hi
		} else if math.IsInf(hi, 0) {
			mid = lo
		}
		total += float64(c) * mid
	}
	return total
}
