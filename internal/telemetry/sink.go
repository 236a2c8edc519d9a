package telemetry

import (
	"fmt"
	"sync"

	"fedca/internal/chaos"
	"fedca/internal/fl"
	"fedca/internal/simnet"
)

// Sink bundles one run's metrics registry and span tracer and pre-registers
// the simulator's metric set. It is an fl.Observer that also watches the
// workers (ObserveIteration and the link observers). A nil *Sink is the
// disabled state: every entry point the round loop touches is nil-safe and
// allocation-free, so instrumented code needs no build flags.
type Sink struct {
	reg    *Registry
	tracer *Tracer

	// Server-side round counters and gauges.
	Rounds        *Counter
	SkippedRounds *Counter
	Quarantined   *Counter
	Dropouts      *Counter
	Round         *Gauge
	VirtualTime   *Gauge
	Accuracy      *Gauge
	FleetSize     *Gauge
	CohortSize    *Gauge

	// Scheme behaviour, counted per client-round by ClientRound by the
	// rules of fl.RunStats, so a sink shared by runners sums them.
	EarlyStops   *Counter
	FullRounds   *Counter
	EagerTx      *Counter
	Retransmits  *Counter
	AnchorRounds *Counter
	AnchorAborts *Counter

	// Link-level traffic, fed by the simnet transfer observers.
	UplinkBytes   *Counter
	DownlinkBytes *Counter
	LinkTransfers *Counter
	LinkRetries   *Counter
	Impairments   *Counter

	// Distributions.
	IterSeconds     *Histogram
	RoundSeconds    *Histogram
	TransferSeconds *Histogram
	ClientIters     *Histogram

	// Wall-clock seconds per round stage (fedca_stage_seconds{stage}), one
	// histogram per stage name, registered when the stage is first seen.
	stageMu      sync.Mutex
	stageSeconds map[string]*Histogram

	up, down linkObserver

	// Runtime-health bridge (fedca_runtime_* and fedca_cputok_inflight
	// gauges, refreshed on scrape).
	health *RuntimeHealth
}

// New builds an enabled sink with the simulator's metric set registered.
func New() *Sink {
	reg := NewRegistry()
	s := &Sink{
		reg:    reg,
		tracer: newTracer(),

		Rounds:        reg.Counter("fedca_rounds_total", "Communication rounds completed, including skipped ones."),
		SkippedRounds: reg.Counter("fedca_rounds_skipped_total", "Rounds closed without aggregating (below quorum)."),
		Quarantined:   reg.Counter("fedca_updates_quarantined_total", "Updates rejected by server-side validation."),
		Dropouts:      reg.Counter("fedca_client_dropouts_total", "Client-rounds lost to mid-round dropout."),
		Round:         reg.Gauge("fedca_round", "Number of completed rounds (current round index + 1)."),
		VirtualTime:   reg.Gauge("fedca_virtual_time_seconds", "Current virtual sim time."),
		Accuracy:      reg.Gauge("fedca_accuracy", "Global model test accuracy after the last aggregation."),
		FleetSize:     reg.Gauge("fedca_fleet_size", "Client population of the running federation's fleet."),
		CohortSize:    reg.Gauge("fedca_cohort_size", "Clients materialized into the last round's cohort."),

		EarlyStops:   reg.Counter("fedca_early_stops_total", "Client-rounds ended by the utility-guided early stop."),
		FullRounds:   reg.Counter("fedca_full_rounds_total", "Completed client-rounds neither early-stopped nor profiling; counted for every scheme, so a FedAvg-family run counts each completed client-round."),
		EagerTx:      reg.Counter("fedca_eager_transmissions_total", "Eager layer transmissions sent before round end."),
		Retransmits:  reg.Counter("fedca_retransmissions_total", "Eagerly sent layers retransmitted at round end."),
		AnchorRounds: reg.Counter("fedca_anchor_rounds_total", "Client-rounds spent profiling statistical progress."),
		AnchorAborts: reg.Counter("fedca_anchor_aborts_total", "Anchor recordings abandoned because the client dropped."),

		UplinkBytes:   reg.Counter("fedca_link_bytes_total", "Payload bytes carried, including failed attempts.", Label{"direction", "up"}),
		DownlinkBytes: reg.Counter("fedca_link_bytes_total", "Payload bytes carried, including failed attempts.", Label{"direction", "down"}),
		LinkTransfers: reg.Counter("fedca_link_transfers_total", "Transmission attempts carried by all links."),
		LinkRetries:   reg.Counter("fedca_link_retries_total", "Failed transfer attempts that were retransmitted, on the uplinks and the downlinks."),
		Impairments:   reg.Counter("fedca_link_impairments_total", "Impairment windows installed on links (degradation or outage)."),

		IterSeconds:     reg.Histogram("fedca_iteration_seconds", "Virtual duration of one local training iteration.", expBuckets(0.01, 2, 16)),
		RoundSeconds:    reg.Histogram("fedca_round_seconds", "Virtual duration of one communication round.", expBuckets(0.1, 2, 18)),
		TransferSeconds: reg.Histogram("fedca_transfer_seconds", "Virtual airtime of one link transfer (queueing excluded).", expBuckets(0.001, 2, 20)),
		ClientIters:     reg.Histogram("fedca_client_round_iterations", "Local iterations completed per client-round.", expBuckets(1, 2, 10)),

		stageSeconds: make(map[string]*Histogram),
	}
	s.health = newRuntimeHealth(reg)
	s.up = linkObserver{bytes: s.UplinkBytes, transfers: s.LinkTransfers, retries: s.LinkRetries, impair: s.Impairments, airtime: s.TransferSeconds}
	s.down = linkObserver{bytes: s.DownlinkBytes, transfers: s.LinkTransfers, retries: s.LinkRetries, impair: s.Impairments, airtime: s.TransferSeconds}
	s.tracer.NameTrack(serverTrack, "server")
	return s
}

// Close does nothing: a sink holds no process-wide state (the gauges that
// mirror it are read at scrape), so any number of sinks may be live and none
// needs closing. It is kept for callers that still close their sinks.
func (s *Sink) Close() {}

// Health returns the sink's runtime-health bridge (nil when disabled).
func (s *Sink) Health() *RuntimeHealth {
	if s == nil {
		return nil
	}
	return s.health
}

// Registry returns the sink's metrics registry (nil when disabled).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Tracer returns the sink's span tracer (nil when disabled).
func (s *Sink) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// ObserveIteration records one local-training iteration's virtual duration.
// This is the per-iteration hot path: nil-safe and allocation-free.
func (s *Sink) ObserveIteration(sec float64) {
	if s == nil {
		return
	}
	s.IterSeconds.Observe(sec)
}

// ClientRound (fl.Observer) counts a client-round's iterations and scheme
// behaviour and renders its record onto the client's trace track, which it
// names: download, local training (or anchor profiling), eager uploads and
// the upload, annotated with the round's chaos events. start is the round's
// start.
func (s *Sink) ClientRound(round int, start float64, u *fl.Update) {
	if s == nil {
		return
	}
	s.ClientIters.Observe(float64(u.Iterations))
	s.countScheme(u)
	tr := s.tracer
	tid := ClientTrack(u.ClientID)
	tr.NameTrack(tid, fmt.Sprintf("client %d", u.ClientID))
	tr.Span(tid, "download", "transfer", start, u.DownloadDone, nil)

	trainName := "local-training"
	if u.Anchor {
		trainName = "anchor-profiling"
	}
	args := map[string]any{"iterations": u.Iterations}
	if p := u.Chaos; p != nil {
		if w := p.Slow; w.Factor > 1 {
			args["slow_iters"] = fmt.Sprintf("%d-%d", w.From, w.To)
			args["slow_factor"] = w.Factor
		}
		if k := p.Corrupt; k != chaos.CorruptNone {
			args["corrupt"] = k.String()
		}
	}
	if u.Dropped {
		args["dropped"] = true
		tr.Instant(tid, "dropout", "chaos", u.TrainEnd, nil)
		if u.Anchor {
			tr.Instant(tid, "anchor-abort", "chaos", u.TrainEnd, nil)
		}
	}
	tr.Span(tid, trainName, "train", u.DownloadDone, u.TrainEnd, args)

	for _, e := range u.Eager {
		tr.Span(tid, fmt.Sprintf("eager-upload L%d", e.Layer), "transfer", e.SentAt, e.DoneAt,
			map[string]any{"layer": e.Layer, "iter": e.Iter})
	}
	clamp := u.TrainEnd
	if !u.Dropped {
		tr.Span(tid, "upload", "transfer", u.TrainEnd, u.CompletionTime, nil)
		clamp = max(clamp, u.CompletionTime)
	}

	// Link impairment windows, clamped to the client's round activity so a
	// whole-round degradation does not stretch the trace to +Inf.
	if p := u.Chaos; p != nil {
		impairmentSpans(tr, tid, "uplink", start, clamp, p.Up)
		impairmentSpans(tr, tid, "downlink", start, clamp, p.Down)
	}
}

// countScheme adds a client-round to the scheme counters by the rules of
// fl.RunStats: anchors count dropped ones too, and a dropped client-round
// counts nothing else.
func (s *Sink) countScheme(u *fl.Update) {
	if u.Anchor {
		s.AnchorRounds.Inc()
	}
	switch {
	case u.Dropped && u.Anchor:
		s.AnchorAborts.Inc()
	case u.Dropped, u.Anchor:
	case u.EarlyStop:
		s.EarlyStops.Inc()
	default:
		s.FullRounds.Inc()
	}
	if !u.Dropped {
		s.EagerTx.Add(float64(u.EagerSent))
		s.Retransmits.Add(float64(u.Retransmitted))
	}
}

// impairmentSpans renders a link's chaos windows as spans on a client
// track. Windows are in seconds relative to the round's start.
func impairmentSpans(tr *Tracer, tid int, link string, start, clamp float64, windows []chaos.LinkWindow) {
	for _, w := range windows {
		from := start + w.From
		to := min(start+w.To, clamp)
		if to <= from {
			continue
		}
		name := link + "-degraded"
		if w.Scale == 0 {
			name = link + "-outage"
		}
		tr.Span(tid, name, "chaos", from, to, map[string]any{"scale": w.Scale})
	}
}

// RoundDone records one completed round (fl.Observer): gauges, counters,
// the round-duration histogram, the server-track round span, the fleet and
// cohort sizes, and the wall-clock seconds of every stage the round ran.
func (s *Sink) RoundDone(rec fl.RoundRecord, meta fl.RoundMeta) {
	if s == nil {
		return
	}
	s.FleetSize.Set(float64(meta.Fleet))
	s.CohortSize.Set(float64(meta.Cohort))
	for _, st := range meta.Stages {
		if st.Rounds == 0 {
			continue
		}
		s.stageMu.Lock()
		h := s.stageSeconds[st.Stage]
		if h == nil {
			h = s.reg.Histogram("fedca_stage_seconds", "Wall-clock seconds one round spent in a runner stage (monotonic clock, not sim time).", expBuckets(1e-6, 4, 13), Label{"stage", st.Stage})
			s.stageSeconds[st.Stage] = h
		}
		s.stageMu.Unlock()
		h.Observe(st.Seconds)
	}
	s.Rounds.Inc()
	if rec.Skipped {
		s.SkippedRounds.Inc()
	}
	s.Quarantined.Add(float64(rec.Quarantined))
	s.Dropouts.Add(float64(rec.Dropped))
	s.Round.Set(float64(rec.Index + 1))
	s.VirtualTime.Set(rec.End)
	s.Accuracy.Set(rec.Accuracy)
	s.RoundSeconds.Observe(rec.Duration())
	args := map[string]any{
		"round":     rec.Index,
		"collected": rec.Collected,
		"accuracy":  rec.Accuracy,
	}
	if rec.Skipped {
		args["skipped"] = true
	}
	if rec.Quarantined > 0 {
		args["quarantined"] = rec.Quarantined
	}
	if rec.Dropped > 0 {
		args["dropped"] = rec.Dropped
	}
	name := "round"
	if rec.Skipped {
		name = "round (skipped)"
	}
	s.tracer.Span(serverTrack, name, "round", rec.Start, rec.End, args)
}

// UpObserver returns the observer to install on a client's uplink (nil when
// disabled).
func (s *Sink) UpObserver() simnet.TransferObserver {
	if s == nil {
		return nil
	}
	return &s.up
}

// DownObserver returns the observer to install on a client's downlink.
func (s *Sink) DownObserver() simnet.TransferObserver {
	if s == nil {
		return nil
	}
	return &s.down
}

// linkObserver adapts the sink to simnet's transfer-observer hook: it counts
// carried bytes, attempts and retries and observes per-transfer airtime. It
// performs no time arithmetic of its own, so observed links behave
// identically to unobserved ones.
type linkObserver struct {
	bytes, transfers, retries, impair *Counter
	airtime                           *Histogram
}

// ObserveTransfer implements simnet.TransferObserver.
func (o *linkObserver) ObserveTransfer(start, end, bytes float64, attempts int) {
	o.bytes.Add(bytes * float64(attempts))
	o.transfers.Add(float64(attempts))
	o.retries.Add(float64(attempts - 1))
	o.airtime.Observe(end - start)
}

// ObserveImpairment implements simnet.TransferObserver.
func (o *linkObserver) ObserveImpairment(from, to, scale float64) {
	o.impair.Inc()
}
