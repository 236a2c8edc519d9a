package experiments

import (
	"fmt"
	"strings"

	"fedca/internal/baseline"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/metrics"
	"fedca/internal/report"
	"fedca/internal/rng"
)

// The experiments in this file extend the paper: Sec. 2.2's orthogonal
// communication and selection methods as working comparators, and Sec. 6's
// future-work idea (client-autonomous hyperparameter adjustment) implemented
// and measured.

// customRun trains a workload under an arbitrary scheme/workload mutation.
// One executor cell per key: the key must canonically identify the mutation.
func customRun(s Scale, model, key string, seed uint64, prep func(w *expcfg.Workload) fl.Scheme) ConvRun {
	cacheKey := fmt.Sprintf("%s/%s/%s/%d", s.cellKey(), model, key, seed)
	return cell("custom", cacheKey, func() ConvRun {
		w, err := s.Workload(model)
		if err != nil {
			panic(err)
		}
		sch := prep(&w)
		var fedca *core.Scheme
		if c, ok := sch.(*core.Scheme); ok {
			fedca = c
		}
		tb := expcfg.Build(w, s.Clients, s.TraceConfig(), seed)
		runner, err := tb.NewRunner(sch)
		if err != nil {
			panic(err)
		}
		results := make([]fl.RoundResult, 0, s.Rounds)
		for i := 0; i < s.Rounds; i++ {
			results = append(results, runner.RunRound())
		}
		run := ConvRun{SchemeName: key, Results: results}
		if fedca != nil {
			st := fedca.Stats()
			run.Stats = &st
		}
		return stripDeltas(run)
	})
}

// warmCustom prefetches one customRun cell per variant.
func warmCustom(s Scale, model string, seed uint64, variants []struct {
	key  string
	prep func(w *expcfg.Workload) fl.Scheme
}, keyPrefix string) {
	var fns []func()
	for _, v := range variants {
		v := v
		fns = append(fns, func() { customRun(s, model, keyPrefix+v.key, seed, v.prep) })
	}
	prefetch(fns...)
}

func totalUploadBytes(results []fl.RoundResult) float64 {
	total := 0.0
	for _, r := range results {
		for _, u := range r.Collected {
			total += u.UploadBytes
		}
		for _, u := range r.Discarded {
			total += u.UploadBytes
		}
	}
	return total
}

// ExtCompress compares FedCA's computation-communication overlap against the
// Sec. 2.2 bit-reduction family — QSGD quantization and top-k sparsification
// under FedAvg — and against FedCA *combined* with quantization (the paper
// calls these methods orthogonal; here the combination is measured). The
// workload is made communication-heavy so the comparison has teeth.
func ExtCompress(s Scale, seed uint64) *Result {
	res := newResult("ext-compress")
	tbl := report.NewTable("Extension — FedCA vs quantization/sparsification (CNN, comm-heavy)",
		"Variant", "Best acc", "Total time (s)", "Upload (MB)")
	commHeavy := func(w *expcfg.Workload) {
		// ~35 s full-model upload at 13.7 Mbps: comm ≈ compute.
		w.FL.ModelBytes = 60e6
	}
	variants := []struct {
		key  string
		prep func(w *expcfg.Workload) fl.Scheme
	}{
		{"fedavg", func(w *expcfg.Workload) fl.Scheme { commHeavy(w); return baseline.FedAvg{} }},
		{"fedavg+qsgd7", func(w *expcfg.Workload) fl.Scheme {
			commHeavy(w)
			w.FL.Compressor = compress.QSGD{Levels: 7}
			return baseline.FedAvg{}
		}},
		{"fedavg+topk5", func(w *expcfg.Workload) fl.Scheme {
			commHeavy(w)
			w.FL.Compressor = compress.TopK{Frac: 0.05}
			return baseline.FedAvg{}
		}},
		{"fedca", func(w *expcfg.Workload) fl.Scheme {
			commHeavy(w)
			return core.NewScheme(s.FedCAOptions(), rng.New(seed).Fork("s", "fedca"))
		}},
		{"fedca+qsgd7", func(w *expcfg.Workload) fl.Scheme {
			commHeavy(w)
			w.FL.Compressor = compress.QSGD{Levels: 7}
			return core.NewScheme(s.FedCAOptions(), rng.New(seed).Fork("s", "fedca+q"))
		}},
	}
	warmCustom(s, "cnn", seed, variants, "")
	for _, v := range variants {
		run := customRun(s, "cnn", v.key, seed, v.prep)
		c := metrics.ConvergenceOf(run.Results, 2) // never reached: summary over all rounds
		bytes := totalUploadBytes(run.Results)
		tbl.AddRow(v.key, c.BestAcc, c.TotalTime, bytes/1e6)
		res.Values["best/"+v.key] = c.BestAcc
		res.Values["total/"+v.key] = c.TotalTime
		res.Values["bytes/"+v.key] = bytes
	}
	res.Text = tbl.String()
	return res
}

// ExtSelection compares full participation (FedAvg) with Oort-style guided
// selection and SAFA-style stale-update reuse under strong heterogeneity —
// the other two Sec. 2.2 families, built and measured.
func ExtSelection(s Scale, seed uint64) *Result {
	res := newResult("ext-selection")
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — participation strategies under heterogeneity (CNN)\n")
	variants := []struct {
		key  string
		prep func(w *expcfg.Workload) fl.Scheme
	}{
		{"fedavg", func(w *expcfg.Workload) fl.Scheme { return baseline.FedAvg{} }},
		{"oort50", func(w *expcfg.Workload) fl.Scheme {
			w.FL.Participation = 0.5
			return baseline.NewOort(w.FL.LocalIters, rng.New(seed).Fork("oort"))
		}},
		{"safa", func(w *expcfg.Workload) fl.Scheme {
			w.FL.AggregateFraction = 0.7 // stragglers exist to be reused
			return baseline.NewSAFA(0.5)
		}},
		{"fedca", func(w *expcfg.Workload) fl.Scheme {
			return core.NewScheme(s.FedCAOptions(), rng.New(seed).Fork("s", "fedca-sel"))
		}},
	}
	warmCustom(s, "cnn", seed, variants, "sel-")
	for _, v := range variants {
		run := customRun(s, "cnn", "sel-"+v.key, seed, v.prep)
		c := metrics.ConvergenceOf(run.Results, 2)
		mean := metrics.MeanRoundDuration(run.Results, 1)
		_, accs := metrics.AccuracyCurve(run.Results)
		res.Values["best/"+v.key] = c.BestAcc
		res.Values["meanround/"+v.key] = mean
		fmt.Fprintf(&b, "%-8s acc %s  best=%.3f  mean round=%.1fs\n", v.key, report.Sparkline(accs), c.BestAcc, mean)
	}
	res.Text = b.String()
	return res
}

// ExtHyperparam measures the Sec. 6 future-work idea implemented in
// core.Options.AdaptiveLR: clients halve their local learning rate once the
// profiled curve says they are deep in diminishing returns.
func ExtHyperparam(s Scale, seed uint64) *Result {
	res := newResult("ext-hp")
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — client-autonomous intra-round LR decay (CNN)\n")
	variants := []struct {
		key      string
		adaptive bool
	}{{"fedca", false}, {"fedca+adaptlr", true}}
	hpRun := func(key string, adaptive bool) ConvRun {
		return customRun(s, "cnn", "hp-"+key, seed, func(w *expcfg.Workload) fl.Scheme {
			o := s.FedCAOptions()
			o.AdaptiveLR = adaptive
			return core.NewScheme(o, rng.New(seed).Fork("s", key))
		})
	}
	var warms []func()
	for _, v := range variants {
		v := v
		warms = append(warms, func() { hpRun(v.key, v.adaptive) })
	}
	prefetch(warms...)
	for _, v := range variants {
		run := hpRun(v.key, v.adaptive)
		c := metrics.ConvergenceOf(run.Results, 2)
		_, accs := metrics.AccuracyCurve(run.Results)
		res.Values["best/"+v.key] = c.BestAcc
		res.Values["final/"+v.key] = c.FinalAcc
		fmt.Fprintf(&b, "%-15s acc %s  best=%.3f final=%.3f\n", v.key, report.Sparkline(accs), c.BestAcc, c.FinalAcc)
	}
	res.Text = b.String()
	return res
}
