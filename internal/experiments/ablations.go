package experiments

import (
	"fmt"
	"strings"

	"fedca/internal/core"
	"fedca/internal/metrics"
	"fedca/internal/report"
	"fedca/internal/rng"
)

// The experiments in this file are not in the paper: they ablate the design
// choices DESIGN.md §5 calls out, extending the paper's Secs. 4.1–4.2
// discussion with measurements.

// floorOff lists abl-floor's runs: with the Eq. 2 floor, then without.
var floorOff = []bool{false, true}

func floorCell(off bool) cellSpec {
	name := "fedca-floor-on"
	if off {
		name = "fedca-floor-off"
	}
	return custom(name, "fedca", fmt.Sprintf("fedca.disablebenfloor=%v", off))
}

// ablationFloor compares FedCA with and without the Eq. 2 benefit floor
// (1 − P_τ)/(K − τ): the guard against non-concave curve stretches. Without
// it, a locally flat anchor curve yields b ≤ 0 and triggers premature stops.
func ablationFloor(in *inputs) *Result {
	res := newResult()
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — Eq. 2 benefit floor on/off (CNN)\n")
	target := in.target("cnn")
	for _, off := range floorOff {
		run := in.run(floorCell(off))
		c := metrics.ConvergenceOf(run.records(), target)
		stops := expand(run.Stats.EarlyStopsByIter)
		meanStop := meanInt(stops)
		label := "with floor"
		if off {
			label = "no floor"
		}
		res.Values["best/"+label] = c.BestAcc
		res.Values["total/"+label] = c.TotalTime
		res.Values["meanstop/"+label] = meanStop
		fmt.Fprintf(&b, "%-10s best=%.3f time-to-target=%.0fs (reached=%v) mean early-stop iter=%.1f (n=%d)\n",
			label, c.BestAcc, c.TotalTime, c.Reached, meanStop, len(stops))
	}
	res.Text = b.String()
	return res
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// sampleCaps are abl-sampling's per-layer sample caps.
var sampleCaps = []int{25, 100, 400}

// capCell is the CNN curve probe with its sampled curves profiled at cap.
func capCell(cap int) cellSpec {
	c := curves("cnn")
	c.name = fmt.Sprintf("cap%d", cap)
	c.spec += fmt.Sprintf(";fedca.samplecap=%d", cap)
	return c
}

// ablationSampling extends Fig. 5: profiling fidelity (max deviation of the
// sampled curve from the full one) at per-layer sample caps 25, 100, 400.
func ablationSampling(in *inputs) *Result {
	s, seed := in.s, in.seed
	res := newResult()
	tbl := report.NewTable("Ablation — intra-layer sample cap vs profiling fidelity (CNN, largest layer)",
		"Cap", "Samples total", "Max deviation", "Profiling mem (KB)")
	w, err := in.workload("cnn")
	if err != nil {
		return in.fail(err)
	}
	cd := in.run(curves("cnn")).Curves
	l := largestLayer(cd)
	full := cd.Probe(s.LateRound, 0).Layer[l]
	for _, cap := range sampleCaps {
		sampled := in.run(capCell(cap)).Curves.Probe(s.LateRound, 0).Sampled[l]
		dev := metrics.MaxAbsDiff(full, sampled)
		prof := core.NewProfiler(cap, core.DefaultSampleFrac, rng.New(seed))
		net := w.NewModel(rng.New(seed)).Network
		prof.Prepare(net.ParamRanges())
		res.Values[fmt.Sprintf("dev/%d", cap)] = dev
		res.Values[fmt.Sprintf("mem/%d", cap)] = float64(prof.MemoryBytes(w.FL.LocalIters))
		tbl.AddRow(cap, prof.TotalSamples(), dev, float64(prof.MemoryBytes(w.FL.LocalIters))/1024)
	}
	res.Text = tbl.String()
	return res
}

// periods are abl-period's profiling periods.
var periods = []int{1, 2, 5, 10}

func periodCell(period int) cellSpec {
	return custom(fmt.Sprintf("fedca-period%d", period), "fedca", fmt.Sprintf("fedca.profileperiod=%d", period))
}

// ablationPeriod extends Sec. 4.1: convergence under profiling periods
// 1 (profile every round: maximal fidelity, zero optimized rounds at period 1
// — every round is an un-optimized anchor!), 2, 5 and 10.
func ablationPeriod(in *inputs) *Result {
	res := newResult()
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — profiling period (CNN); period 1 never optimizes (every round is an anchor)\n")
	target := in.target("cnn")
	for _, period := range periods {
		run := in.run(periodCell(period))
		c := metrics.ConvergenceOf(run.records(), target)
		res.Values[fmt.Sprintf("total/%d", period)] = c.TotalTime
		res.Values[fmt.Sprintf("best/%d", period)] = c.BestAcc
		fmt.Fprintf(&b, "period=%-3d best=%.3f time-to-target=%.0fs (reached=%v)\n", period, c.BestAcc, c.TotalTime, c.Reached)
	}
	res.Text = b.String()
	return res
}

// deadlineRules are abl-deadline's rules: FedBalancer's (quantile 0), then
// fixed quantiles.
var deadlineRules = []deadlineRule{{"fedbalancer", 0}, {"quantile-0.5", 0.5}, {"quantile-0.9", 0.9}}

type deadlineRule struct {
	label string
	q     float64
}

func ruleCell(rule deadlineRule) cellSpec {
	return custom("fedca-dl-"+rule.label, "fedca", fmt.Sprintf("fedca.deadlinequantile=%g", rule.q))
}

// ablationDeadline compares the FedBalancer-style argmax(#finished/T)
// deadline with fixed-quantile deadlines (50th/90th percentile of estimated
// round times).
func ablationDeadline(in *inputs) *Result {
	res := newResult()
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — deadline rule (CNN)\n")
	target := in.target("cnn")
	for _, rule := range deadlineRules {
		run := in.run(ruleCell(rule))
		c := metrics.ConvergenceOf(run.records(), target)
		res.Values["total/"+rule.label] = c.TotalTime
		res.Values["best/"+rule.label] = c.BestAcc
		fmt.Fprintf(&b, "%-14s best=%.3f time-to-target=%.0fs (reached=%v) per-round=%.1fs\n",
			rule.label, c.BestAcc, c.TotalTime, c.Reached, c.PerRoundTime)
	}
	res.Text = b.String()
	return res
}
