// Ablation: what each FedCA mechanism buys (the paper's Fig. 9 in miniature).
//
// Four configurations train the same workload from the same seed:
//
//	fedavg — no client autonomy
//	v1     — utility-guided early stop only
//	v2     — early stop + eager transmission, NO retransmission
//	v3     — full FedCA (early stop + eager transmission + error feedback)
//
// The point to notice: v2 can lose accuracy relative to v3 — eagerly
// transmitted layers that later deviate are never corrected — which is why
// the retransmission mechanism is indispensable.
//
//	go run ./examples/ablation
package main

import (
	"fmt"

	"fedca/internal/baseline"
	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/report"
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

	const clients = 8
	const rounds = 20
	const seed = 3

	variants := []struct {
		name   string
		scheme func() fl.Scheme
	}{
		{"fedavg", func() fl.Scheme { return baseline.FedAvg{} }},
		{"v1", func() fl.Scheme {
			o := core.DefaultOptions(w.FL.LocalIters)
			o.Eager, o.Retransmit = false, false
			o.ProfilePeriod = 5
			return core.NewScheme(o, rng.New(seed))
		}},
		{"v2", func() fl.Scheme {
			o := core.DefaultOptions(w.FL.LocalIters)
			o.Retransmit = false
			o.ProfilePeriod = 5
			// Aggressive eager threshold so the missing retransmission shows.
			o.Te = 0.7
			return core.NewScheme(o, rng.New(seed))
		}},
		{"v3", func() fl.Scheme {
			o := core.DefaultOptions(w.FL.LocalIters)
			o.ProfilePeriod = 5
			o.Te = 0.7
			return core.NewScheme(o, rng.New(seed))
		}},
	}

	fmt.Println("time-to-accuracy under the four variants (same data, init, traces):")
	for _, v := range variants {
		tb := expcfg.Build(w, clients, trace.PaperConfig(), seed)
		runner, err := tb.NewRunner(v.scheme())
		if err != nil {
			panic(err)
		}
		var accs []float64
		var t float64
		for i := 0; i < rounds; i++ {
			r := runner.RunRound()
			accs = append(accs, r.Accuracy)
			t = r.End
		}
		fmt.Printf("%-7s acc %s  final=%.3f  total=%.0fs\n", v.name, report.Sparkline(accs), accs[len(accs)-1], t)
	}
}
