// Heterogeneity: the straggler scenario that motivates FedCA's intro.
//
// A fleet with strong static speed spread plus the paper's fast/slow
// dynamicity (Γ(2,40)/Γ(2,6) durations, U(1,5) slowdowns) trains the CNN
// workload under FedAvg, FedAda (server-side workload adaptation from stale
// history) and FedCA (intra-round client autonomy). The example prints each
// round's duration and the per-scheme mean, showing how FedCA reacts to
// slowdowns the server never sees.
//
//	go run ./examples/heterogeneity
package main

import (
	"fmt"

	"fedca/internal/baseline"
	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/metrics"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

func main() {
	// This goroutine drives every round: cover it with a CPU token, as an
	// execpool cell's admission would.
	budget := cputok.Default()
	defer budget.Return(budget.Cover())

	w := expcfg.CNN()
	w.Img.Height, w.Img.Width, w.Img.Classes = 8, 8, 4
	w = w.Shrink(25, 1024, 512, 16)

	// Exaggerated heterogeneity: static spread σ=1.0 on top of the paper's
	// dynamic fast/slow toggling.
	tcfg := trace.PaperConfig()
	tcfg.HeterogeneitySigma = 1.0

	const clients = 16
	const rounds = 12
	const seed = 7

	type outcome struct {
		name     string
		results  []fl.RoundResult
		finalAcc float64
	}
	var outcomes []outcome

	schemes := []struct {
		name   string
		scheme fl.Scheme
	}{
		{"fedavg", baseline.FedAvg{}},
		{"fedada", baseline.FedAda{K: w.FL.LocalIters, Tradeoff: 0.5}},
		{"fedca", func() fl.Scheme {
			opt := core.DefaultOptions(w.FL.LocalIters)
			opt.ProfilePeriod = 5
			return core.NewScheme(opt, rng.New(seed))
		}()},
	}
	for _, s := range schemes {
		tb := expcfg.Build(w, clients, tcfg, seed)
		runner, err := tb.NewRunner(s.scheme)
		if err != nil {
			panic(err)
		}
		var rs []fl.RoundResult
		for i := 0; i < rounds; i++ {
			rs = append(rs, runner.RunRound())
		}
		outcomes = append(outcomes, outcome{s.name, rs, rs[len(rs)-1].Accuracy})
	}

	fmt.Printf("%5s", "round")
	for _, o := range outcomes {
		fmt.Printf(" %14s", o.name+" dur(s)")
	}
	fmt.Println()
	for i := 0; i < rounds; i++ {
		fmt.Printf("%5d", i)
		for _, o := range outcomes {
			fmt.Printf(" %14.1f", o.results[i].Duration())
		}
		fmt.Println()
	}
	fmt.Println()
	for _, o := range outcomes {
		// Skip round 0: FedCA profiles (full-length anchor) and FedAda has
		// no history yet, so both behave like FedAvg there.
		mean := metrics.MeanRoundDuration(o.results, 1)
		fmt.Printf("%-7s mean round (after bootstrap) %6.1fs   final acc %.3f\n", o.name, mean, o.finalAcc)
	}
}
