package experiments

import (
	"fmt"
	"strings"

	"fedca/internal/fl"
	"fedca/internal/metrics"
	"fedca/internal/report"
)

// The experiments in this file extend the paper: Sec. 2.2's orthogonal
// communication and selection methods as working comparators, and Sec. 6's
// future-work idea (client-autonomous hyperparameter adjustment) implemented
// and measured.

func totalUploadBytes(rounds []fl.RoundRecord) float64 {
	total := 0.0
	for _, r := range rounds {
		total += r.UploadBytes
	}
	return total
}

// compressCells are ext-compress's variants, keyed by their row labels. The
// CNN is made communication-heavy (modelbytes=6e+07: a ~35 s full-model
// upload at 13.7 Mbps, so comm ≈ compute).
var compressCells = []cellSpec{
	custom("fedavg", "fedavg", "modelbytes=6e+07"),
	custom("fedavg+qsgd7", "fedavg", "modelbytes=6e+07;compress=qsgd7"),
	custom("fedavg+topk5", "fedavg", "modelbytes=6e+07;compress=topk5"),
	custom("fedca", "fedca", "modelbytes=6e+07"),
	custom("fedca+qsgd7", "fedca", "modelbytes=6e+07;compress=qsgd7"),
}

// extCompress compares FedCA's computation-communication overlap against the
// Sec. 2.2 bit-reduction family — QSGD quantization and top-k sparsification
// under FedAvg — and against FedCA *combined* with quantization (the paper
// calls these methods orthogonal; here the combination is measured). The
// workload is made communication-heavy so the comparison has teeth.
func extCompress(in *inputs) *Result {
	res := newResult()
	tbl := report.NewTable("Extension — FedCA vs quantization/sparsification (CNN, comm-heavy)",
		"Variant", "Best acc", "Total time (s)", "Upload (MB)")
	for _, cell := range compressCells {
		run := in.run(cell)
		c := metrics.ConvergenceOf(run.records(), 2) // never reached: summary over all rounds
		bytes := totalUploadBytes(run.records())
		tbl.AddRow(cell.name, c.BestAcc, c.TotalTime, bytes/1e6)
		res.Values["best/"+cell.name] = c.BestAcc
		res.Values["total/"+cell.name] = c.TotalTime
		res.Values["bytes/"+cell.name] = bytes
	}
	res.Text = tbl.String()
	return res
}

// selectionCells are ext-selection's variants. Oort samples half the
// clients a round (its default cohort); SAFA aggregates at 70 %, so
// stragglers exist to be reused. sel-fedavg and sel-fedca are the CNN
// FedAvg and FedCA runs of Fig. 7.
var selectionCells = []cellSpec{
	custom("sel-fedavg", "fedavg", ""),
	custom("sel-oort50", "oort", ""),
	custom("sel-safa", "safa", "aggfrac=0.7"),
	custom("sel-fedca", "fedca", ""),
}

// extSelection compares full participation (FedAvg) with Oort-style guided
// selection and SAFA-style stale-update reuse under strong heterogeneity —
// the other two Sec. 2.2 families, built and measured.
func extSelection(in *inputs) *Result {
	res := newResult()
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — participation strategies under heterogeneity (CNN)\n")
	for _, cell := range selectionCells {
		run := in.run(cell)
		key := strings.TrimPrefix(cell.name, "sel-")
		c := metrics.ConvergenceOf(run.records(), 2)
		mean := metrics.MeanRoundDuration(run.records(), 1)
		_, accs := metrics.AccuracyCurve(run.records())
		res.Values["best/"+key] = c.BestAcc
		res.Values["meanround/"+key] = mean
		fmt.Fprintf(&b, "%-8s acc %s  best=%.3f  mean round=%.1fs\n", key, report.Sparkline(accs), c.BestAcc, mean)
	}
	res.Text = b.String()
	return res
}

// hpCells are ext-hp's variants: standard FedCA (the CNN FedCA run of
// Fig. 7), then FedCA with core.Options.AdaptiveLR.
var hpCells = []cellSpec{
	custom("hp-fedca", "fedca", ""),
	custom("hp-fedca+adaptlr", "fedca", "fedca.adaptivelr=true"),
}

// extHyperparam measures the Sec. 6 future-work idea implemented in
// core.Options.AdaptiveLR: clients halve their local learning rate once the
// profiled curve says they are deep in diminishing returns.
func extHyperparam(in *inputs) *Result {
	res := newResult()
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — client-autonomous intra-round LR decay (CNN)\n")
	for _, cell := range hpCells {
		run := in.run(cell)
		key := strings.TrimPrefix(cell.name, "hp-")
		c := metrics.ConvergenceOf(run.records(), 2)
		_, accs := metrics.AccuracyCurve(run.records())
		res.Values["best/"+key] = c.BestAcc
		res.Values["final/"+key] = c.FinalAcc
		fmt.Fprintf(&b, "%-15s acc %s  best=%.3f final=%.3f\n", key, report.Sparkline(accs), c.BestAcc, c.FinalAcc)
	}
	res.Text = b.String()
	return res
}
