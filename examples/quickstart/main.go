// Quickstart: the smallest end-to-end FedCA run.
//
// It assembles a simulated federation (8 clients, non-IID synthetic CIFAR-like
// data, FedScale-like speed heterogeneity with the paper's fast/slow
// dynamicity), trains a LeNet-style CNN under FedCA for 15 rounds, and prints
// the virtual-time/accuracy trajectory next to plain FedAvg.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"fedca/internal/baseline"
	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

func main() {
	// This goroutine drives every round: cover it with a CPU token, as an
	// execpool cell's admission would.
	budget := cputok.Default()
	defer budget.Return(budget.Cover())

	// A scaled-down CNN workload: 8×8 synthetic images, 4 classes,
	// K = 25 local iterations per round (see expcfg for the paper-sized one).
	w := expcfg.CNN()
	w.Img.Height, w.Img.Width, w.Img.Classes = 8, 8, 4
	w = w.Shrink(25, 1024, 512, 16)

	const clients = 8
	const rounds = 15
	const seed = 1

	run := func(name string, scheme fl.Scheme) {
		// Same seed ⇒ identical data, partitions, model init and speed
		// traces: only the scheme differs.
		tb := expcfg.Build(w, clients, trace.PaperConfig(), seed)
		runner, err := tb.NewRunner(scheme)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n%s\n%5s %10s %8s %8s\n", name, "round", "vtime(s)", "acc", "iters")
		for i := 0; i < rounds; i++ {
			r := runner.RunRound()
			fmt.Printf("%5d %10.1f %8.4f %8.1f\n", r.Round, r.End, r.Accuracy, r.MeanIterations)
		}
	}

	run("FedAvg (baseline)", baseline.FedAvg{})

	opt := core.DefaultOptions(w.FL.LocalIters) // β=0.01, Te=0.95, Tr=0.6
	opt.ProfilePeriod = 5
	run("FedCA (client autonomy)", core.NewScheme(opt, rng.New(seed)))

	fmt.Println("\nFedCA rounds shorten once the anchor round (round 0) has profiled")
	fmt.Println("statistical-progress curves and clients start stopping early and")
	fmt.Println("eagerly transmitting early-converged layers.")
}
