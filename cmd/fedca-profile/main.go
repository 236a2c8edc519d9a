// fedca-profile trains a workload under plain FedAvg and prints the
// statistical-progress curves (the paper's Figs. 2–5 data) for chosen rounds
// and clients: the model-level curve, per-layer curves, and the periodically
// sampled approximations.
//
// Usage:
//
//	fedca-profile -model cnn -scale tiny
//	fedca-profile -model lstm -layers -series
package main

import (
	"flag"
	"fmt"
	"os"

	"fedca/internal/experiments"
	"fedca/internal/report"
)

func main() {
	model := flag.String("model", "cnn", "workload: cnn | lstm | wrn")
	scaleName := flag.String("scale", "tiny", "experiment scale: tiny | small | full")
	seed := flag.Uint64("seed", 42, "master seed")
	layers := flag.Bool("layers", false, "print per-layer curves")
	sampled := flag.Bool("sampled", false, "print the sampled-profiling curves next to full ones")
	series := flag.Bool("series", false, "print raw series values instead of sparklines")
	flag.Parse()

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fail(err)
	}
	w, err := scale.Workload(*model)
	if err != nil {
		fail(err)
	}
	cd, err := experiments.CollectCurvesFor(w, scale, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload=%s K=%d layers=%d (probe rounds %d and %d, clients 0/1)\n",
		*model, cd.K, len(cd.LayerNames), scale.EarlyRound, scale.LateRound)

	show := func(name string, curve []float64) {
		if *series {
			xs := make([]float64, len(curve))
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			fmt.Print(report.Series(name, xs, curve, 0))
		} else {
			fmt.Printf("%-52s %s\n", name, report.Sparkline(curve))
		}
	}
	for _, stage := range []struct {
		label string
		round int
	}{{"early", scale.EarlyRound}, {"late", scale.LateRound}} {
		for _, client := range []int{0, 1} {
			pc := cd.Probe(stage.round, client)
			if pc == nil {
				continue
			}
			show(fmt.Sprintf("model/%s/round%d/client%d", stage.label, stage.round, client), pc.Model)
			if *layers {
				for l, name := range cd.LayerNames {
					show(fmt.Sprintf("layer/%s/c%d/%s", stage.label, client, name), pc.Layer[l])
					if *sampled {
						show(fmt.Sprintf("layer/%s/c%d/%s (sampled)", stage.label, client, name), pc.Sampled[l])
					}
				}
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fedca-profile:", err)
	os.Exit(2)
}
