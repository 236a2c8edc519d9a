package experiments

import (
	"fmt"
	"strings"

	"fedca/internal/core"
	"fedca/internal/metrics"
	"fedca/internal/report"
	"fedca/internal/rng"
)

// fig8a regenerates the early-stop CDFs for CNN: the iteration at which FedCA
// clients stop (client-side, intra-round) versus the iteration budget FedAda
// truncates stragglers to (server-side, history-based).
func fig8a(in *inputs) *Result {
	s := in.s
	res := newResult()
	var b strings.Builder
	k := s.Base.LocalIters
	fmt.Fprintf(&b, "Fig. 8a — CDF of the early-stop iteration (CNN, K=%d)\n", k)

	fedca := in.run(conv("cnn", "fedca"))
	caIters := expand(fedca.Stats.EarlyStopsByIter)
	// Clients that never stopped early count as acting at the full K, so the
	// CDF ends at 1 over the same population.
	for i := 0; i < fedca.Stats.FullRounds; i++ {
		caIters = append(caIters, k)
	}

	fedada := in.run(conv("cnn", "fedada"))
	var adaIters []int
	for _, r := range fedada.Results {
		for _, u := range append(r.Collected, r.Discarded...) {
			adaIters = append(adaIters, u.Iterations)
		}
	}

	cdfRow(res, &b, 7, "fedca", caIters)
	cdfRow(res, &b, 7, "fedada", adaIters)
	res.Text = b.String()
	return res
}

// expand turns by-iteration counts back into samples: counts[k] copies of
// k, in ascending order.
func expand(counts []int) []int {
	var out []int
	for k, n := range counts {
		for range n {
			out = append(out, k)
		}
	}
	return out
}

// cdfRow records the CDF of one population's iterations in res, under name,
// and renders its row with the name padded to width.
func cdfRow(res *Result, b *strings.Builder, width int, name string, iters []int) {
	cdf := metrics.CDF(iters)
	xs := make([]float64, len(cdf))
	ps := make([]float64, len(cdf))
	for i, p := range cdf {
		xs[i], ps[i] = p.X, p.P
	}
	res.Series[name+"-x"] = xs
	res.Series[name+"-p"] = ps
	res.Values["median/"+name] = metrics.Quantile(cdf, 0.5)
	fmt.Fprintf(b, "%-*s CDF %s  median=%.0f n=%d\n", width, name, report.Sparkline(ps), metrics.Quantile(cdf, 0.5), len(iters))
}

// fig8b regenerates the eager-transmission CDFs for CNN, with and without the
// retransmission mechanism: a retransmitted layer's effective action moment
// is the round's last iteration.
func fig8b(in *inputs) *Result {
	s := in.s
	res := newResult()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8b — CDF of the eager-transmission iteration (CNN, K=%d)\n", s.Base.LocalIters)

	with := *in.run(conv("cnn", "fedca")).Stats
	withIters := append(expand(with.EagerByIter), expand(with.RetransmitsByIter)...)
	without := *in.run(conv("cnn", "fedca-v2")).Stats
	withoutIters := expand(without.EagerByIter)

	cdfRow(res, &b, 16, "with-retrans", withIters)
	cdfRow(res, &b, 16, "without-retrans", withoutIters)
	res.Values["retransmissions"] = float64(with.RetransmitsTotal)
	res.Text = b.String()
	return res
}

// overhead regenerates the Sec. 5.5 profiling-overhead accounting: sampled
// parameter counts and peak profiling memory per workload, versus model size.
// It trains nothing, so it declares no cells.
func overhead(in *inputs) *Result {
	seed := in.seed
	res := newResult()
	tb := report.NewTable("Sec. 5.5 — periodical-sampling overhead",
		"Model", "Params", "Layers", "Sampled", "Profiling mem (KB)", "Model size (KB)", "Ratio")
	for _, m := range curveModels {
		w, err := in.workload(m)
		if err != nil {
			return in.fail(err)
		}
		net := w.NewModel(rng.New(seed)).Network
		p := core.NewProfiler(core.DefaultSampleCap, core.DefaultSampleFrac, rng.New(seed).Fork("ovh", m))
		p.Prepare(net.ParamRanges())
		mem := p.MemoryBytes(w.FL.LocalIters)
		modelBytes := w.FL.ModelBytes
		if modelBytes == 0 {
			modelBytes = float64(net.NumParams()) * 4
		}
		tb.AddRow(m, net.NumParams(), p.Layers(), p.TotalSamples(),
			float64(mem)/1024, modelBytes/1024, float64(mem)/modelBytes)
		res.Values["samples/"+m] = float64(p.TotalSamples())
		res.Values["membytes/"+m] = float64(mem)
		res.Values["params/"+m] = float64(net.NumParams())
	}
	res.Text = tb.String()
	return res
}
