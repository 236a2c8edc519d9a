package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"fedca"
	"fedca/internal/expcfg"
	"fedca/internal/rng"
)

// estimateRow is one layer's share of a round, estimated as probe busy time
// times the call count the run reported.
type estimateRow struct {
	Layer   string  `json:"layer"`
	BusyUS  float64 `json:"busy_us"`
	Calls   float64 `json:"calls_per_round"`
	Seconds float64 `json:"cpu_s_per_round"`
}

// perLayer joins the probes' busy numbers with the counts of the traced run
// (telemetry counters, FedCAStats, DegradationStats, cohort x iterations).
// busy is nil when the probes did not run.
func perLayer(w workload, o fedca.Options, untraced, traced *childResult, busy map[string]float64) (map[string]metricValue, []estimateRow) {
	rounds := float64(len(traced.Rounds) - 1)
	// total is what the measured rounds added to a cumulative counter.
	total := func(name string) float64 { return traced.Final[name] - traced.AfterWarmup[name] }
	perRound := func(name string) float64 { return total(name) / rounds }
	cohort, iters := perRound("cohort_clients"), perRound("iterations")
	_, isFedCA := traced.Final["fedca_anchor_rounds"]

	var collected, stopIter []float64
	for _, r := range traced.Rounds[1:] {
		collected = append(collected, float64(r.Collected))
		if !r.Skipped {
			stopIter = append(stopIter, r.MeanIters)
		}
	}
	wallU, cpuU := untraced.measured()
	wallT, _ := traced.measured()
	pos, _ := crossing(traced.Rounds, w.Target)

	v := map[string]float64{
		"fl.iters_per_round":         iters,
		"fl.rounds_to_target":        pos,
		"fl.collected_per_round":     mean(collected),
		"fl.discarded_per_round":     cohort - mean(collected),
		"fl.skipped_rounds":          traced.Final["skipped_rounds"],
		"core.early_stops":           total("early_stops"),
		"core.eager_sends":           total("fedca_eager_sends"),
		"core.retransmits":           total("fedca_retransmits"),
		"core.anchor_rounds":         traced.Final["fedca_anchor_rounds"],
		"core.mean_stop_iter":        0,
		"compress.calls_per_round":   0,
		"simnet.transfers_per_round": perRound("transfers"),
		"simnet.retries_per_round":   perRound("transfer_retries"),
		"simnet.down_mb_per_round":   perRound("down_bytes") / 1e6,
		"chaos.dropouts":             traced.Final["dropped"],
		"chaos.quarantined":          traced.Final["quarantined"],
		"chaos.link_retries":         traced.Final["link_retries"],
		"cputok.cap":                 float64(untraced.TokenCap),
		"cputok.max_inflight":        float64(untraced.TokenMax),
		"cputok.cpu_utilisation":     sum(cpuU) / (sum(wallU) * float64(untraced.TokenCap)),
		"telemetry.overhead_pct":     (median(wallT)/median(wallU) - 1) * 100,
		"telemetry.events_per_round": traced.Final["journal_events"] / float64(len(traced.Rounds)),
	}
	if isFedCA && len(stopIter) > 0 {
		v["core.mean_stop_iter"] = mean(stopIter)
	}
	// Whether a compressor was at work is observed, not read from the options:
	// it was when the uplink carried fewer bytes than the dense updates of the
	// clients that uploaded, at the model's serialized size (without one it
	// carries those, plus retransmitted layers and failed attempts). Every
	// such client then compresses each layer once, plus once more per
	// retransmitted layer; the program has no counter for the calls
	// themselves.
	wl, _ := expcfg.ByName(o.Model)
	net := wl.NewModel(rng.New(1)).Network
	uploaders := cohort - perRound("dropped")
	v["compress.uplink_ratio"] = perRound("up_bytes") / (uploaders * wl.FL.ModelBytes)
	compressed := v["compress.uplink_ratio"] < 1
	if compressed {
		v["compress.calls_per_round"] = uploaders*float64(len(net.ParamRanges())) + perRound("fedca_retransmits")
	}

	var est []estimateRow
	if busy != nil {
		for k, x := range busy {
			v[k] = x
		}
		row := func(layer string, busyUS, calls float64) {
			if calls > 0 {
				est = append(est, estimateRow{layer, busyUS, calls, busyUS * calls / 1e6})
			}
		}
		row("nn (forward+loss+backward+sgd)", busy["nn.forward_us"]+busy["nn.loss_us"]+busy["nn.backward_us"]+busy["nn.sgd_step_us"], iters)
		row("data.NextInto", busy["data.next_batch_us"], iters)
		row("fl.Evaluate", busy["fl.evaluate_ms"]*1e3, 1)
		if isFedCA {
			row("core controller", busy["core.controller_iter_us"], iters)
		}
		if compressed && o.Compress != "" {
			row("compress "+o.Compress, float64(net.NumParams())*8/busy["compress."+o.Compress+"_mb_per_s"], uploaders)
		}
		if o.Fleet > 0 {
			row("expcfg materialise+recycle", busy["expcfg.materialize_us"]+busy["expcfg.recycle_us"], cohort)
		}
		if o.Chaos != "" {
			row("chaos.Plan", busy["chaos.plan_us"], cohort)
		}
		row("simnet transfer", busy["simnet.transfer_ns"]/1e3, perRound("transfers"))
		var attributed float64
		for _, e := range est {
			attributed += e.Seconds
		}
		v["fl.unattributed_share"] = 1 - attributed/(mean(wallU)*float64(untraced.TokenCap))
	}

	out := make(map[string]metricValue, len(v))
	for _, def := range perLayerDefs {
		if x, ok := v[def.Name]; ok {
			out[def.Name] = metricValue{Value: x, Unit: def.Unit}
		}
	}
	return out, est
}

// writeEstimate prints where a round's CPU time goes according to the
// probes. It is an estimate: fedca.RunRound's children live inside the
// program, which has no stage spans yet.
func writeEstimate(w io.Writer, est []estimateRow, roundWallS float64, cap int) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer (estimate: probe busy x run count)\tbusy us\tcalls/round\tcpu s/round\tshare")
	budget := roundWallS * float64(cap)
	for _, e := range est {
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.4f\t%.1f%%\n", e.Layer, e.BusyUS, e.Calls, e.Seconds, 100*e.Seconds/budget)
	}
	tw.Flush()
}
