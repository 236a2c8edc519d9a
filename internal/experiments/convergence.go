package experiments

import (
	"fmt"
	"strings"

	"fedca/internal/core"
	"fedca/internal/metrics"
	"fedca/internal/report"
)

// convergenceSchemes is the paper's end-to-end comparison set (Fig. 7,
// Table 1).
var convergenceSchemes = []string{"fedavg", "fedprox", "fedada", "fedca"}

// fig7 regenerates Fig. 7: time-to-accuracy curves of the four schemes on the
// three workloads.
func fig7(in *inputs) *Result {
	res := newResult("fig7")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — time-to-accuracy (virtual time)\n")
	for _, m := range curveModels {
		for _, scheme := range convergenceSchemes {
			run := in.conv(conv(m, scheme))
			times, accs := metrics.AccuracyCurve(run.Results)
			res.Series[fmt.Sprintf("%s-%s-time", m, scheme)] = times
			res.Series[fmt.Sprintf("%s-%s-acc", m, scheme)] = accs
			final := accs[len(accs)-1]
			res.Values[fmt.Sprintf("finalacc/%s/%s", m, scheme)] = final
			res.Values[fmt.Sprintf("totaltime/%s/%s", m, scheme)] = times[len(times)-1]
			fmt.Fprintf(&b, "%-5s %-8s acc %s  final=%.3f  t=%.0fs\n", m, scheme, report.Sparkline(accs), final, times[len(times)-1])
		}
	}
	res.Text = b.String()
	return res
}

// table1 regenerates Table 1: per-round time, number of rounds and total time
// to reach the target accuracy, per model and scheme.
func table1(in *inputs) *Result {
	res := newResult("table1")
	tb := report.NewTable("Table 1 — time to reach the target accuracy",
		"Model", "Target", "Scheme", "Per-round (s)", "Rounds", "Total (h)", "Reached")
	for _, m := range curveModels {
		target := in.target(m)
		res.Values["target/"+m] = target
		for _, scheme := range convergenceSchemes {
			run := in.conv(conv(m, scheme))
			c := metrics.ConvergenceOf(run.Results, target)
			tb.AddRow(m, target, scheme, c.PerRoundTime, c.Rounds, c.TotalTime/3600, fmt.Sprintf("%v", c.Reached))
			res.Values[fmt.Sprintf("perround/%s/%s", m, scheme)] = c.PerRoundTime
			res.Values[fmt.Sprintf("rounds/%s/%s", m, scheme)] = float64(c.Rounds)
			res.Values[fmt.Sprintf("total/%s/%s", m, scheme)] = c.TotalTime
			if c.Reached {
				res.Values[fmt.Sprintf("reached/%s/%s", m, scheme)] = 1
			}
		}
	}
	res.Text = tb.String()
	return res
}

// fig9Models and fig9Schemes span the ablation grid.
var (
	fig9Models  = []string{"cnn", "lstm"}
	fig9Schemes = []string{"fedavg", "fedca-v1", "fedca-v2", "fedca"}
)

// fig9 regenerates the ablation study: FedAvg vs FedCA-v1 (early stop only),
// FedCA-v2 (+ eager, no retransmission) and FedCA-v3 (full), on CNN and LSTM.
func fig9(in *inputs) *Result {
	res := newResult("fig9")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — ablation (v1 = early stop; v2 = +eager, no retrans; v3 = full)\n")
	labels := map[string]string{"fedavg": "fedavg", "fedca-v1": "v1", "fedca-v2": "v2", "fedca": "v3"}
	for _, m := range fig9Models {
		target := in.target(m)
		for _, scheme := range fig9Schemes {
			run := in.conv(conv(m, scheme))
			times, accs := metrics.AccuracyCurve(run.Results)
			lbl := labels[scheme]
			res.Series[fmt.Sprintf("%s-%s-time", m, lbl)] = times
			res.Series[fmt.Sprintf("%s-%s-acc", m, lbl)] = accs
			c := metrics.ConvergenceOf(run.Results, target)
			res.Values[fmt.Sprintf("total/%s/%s", m, lbl)] = c.TotalTime
			res.Values[fmt.Sprintf("best/%s/%s", m, lbl)] = c.BestAcc
			fmt.Fprintf(&b, "%-5s %-7s acc %s  best=%.3f  time-to-%.2f=%.0fs (reached=%v)\n",
				m, lbl, report.Sparkline(accs), c.BestAcc, target, c.TotalTime, c.Reached)
		}
	}
	res.Text = b.String()
	return res
}

// betas are Fig. 10a's marginal cost ratios.
var betas = []float64{0.1, 0.01, 0.001}

func betaCell(beta float64) cellSpec {
	return cnnVariant(fmt.Sprintf("-beta%g", beta), func(o *core.Options) { o.Beta = beta })
}

// fig10a regenerates the β sensitivity study on CNN.
func fig10a(in *inputs) *Result {
	res := newResult("fig10a")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10a — sensitivity to the marginal cost ratio β (CNN)\n")
	target := in.target("cnn")
	for _, beta := range betas {
		run := in.conv(betaCell(beta))
		times, accs := metrics.AccuracyCurve(run.Results)
		res.Series[fmt.Sprintf("beta%g-time", beta)] = times
		res.Series[fmt.Sprintf("beta%g-acc", beta)] = accs
		c := metrics.ConvergenceOf(run.Results, target)
		res.Values[fmt.Sprintf("total/beta%g", beta)] = c.TotalTime
		res.Values[fmt.Sprintf("best/beta%g", beta)] = c.BestAcc
		fmt.Fprintf(&b, "β=%-6g acc %s  best=%.3f  time-to-target=%.0fs (reached=%v)\n",
			beta, report.Sparkline(accs), c.BestAcc, c.TotalTime, c.Reached)
	}
	res.Text = b.String()
	return res
}

// thresholds are Fig. 10b's (T_e, T_r) combinations.
var thresholds = []threshold{{0.95, 0.6}, {0.95, 0.8}, {0.85, 0.6}}

type threshold struct{ te, tr float64 }

func thresholdCell(t threshold) cellSpec {
	return cnnVariant(fmt.Sprintf("-te%g-tr%g", t.te, t.tr), func(o *core.Options) { o.Te, o.Tr = t.te, t.tr })
}

// fig10b regenerates the (T_e, T_r) sensitivity study on CNN.
func fig10b(in *inputs) *Result {
	res := newResult("fig10b")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10b — sensitivity to eager/retransmission thresholds (CNN)\n")
	target := in.target("cnn")
	for _, combo := range thresholds {
		run := in.conv(thresholdCell(combo))
		times, accs := metrics.AccuracyCurve(run.Results)
		res.Series[fmt.Sprintf("te%g-tr%g-acc", combo.te, combo.tr)] = accs
		res.Series[fmt.Sprintf("te%g-tr%g-time", combo.te, combo.tr)] = times
		c := metrics.ConvergenceOf(run.Results, target)
		res.Values[fmt.Sprintf("best/te%g-tr%g", combo.te, combo.tr)] = c.BestAcc
		res.Values[fmt.Sprintf("total/te%g-tr%g", combo.te, combo.tr)] = c.TotalTime
		fmt.Fprintf(&b, "Te=%.2f Tr=%.2f acc %s  best=%.3f  time-to-target=%.0fs (reached=%v)\n",
			combo.te, combo.tr, report.Sparkline(accs), c.BestAcc, c.TotalTime, c.Reached)
	}
	res.Text = b.String()
	return res
}
