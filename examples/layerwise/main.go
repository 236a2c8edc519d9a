// Layerwise: a walkthrough of FedCA's per-layer machinery on a single client.
//
// It runs an anchor round and one FedCA round through the runner, then
// prints, for every parameter tensor of client 0:
//
//   - its profiled statistical-progress curve (from the anchor round),
//   - the iteration at which the curve crosses T_e (eager transmission), and
//   - whether the error-feedback check (Eq. 6) forced a retransmission.
//
// go run ./examples/layerwise
package main

import (
	"fmt"

	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
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
	w = w.Shrink(30, 1024, 512, 16)

	const seed = 11
	tb := expcfg.Build(w, 4, trace.Config{}, seed)

	opt := core.DefaultOptions(w.FL.LocalIters)
	opt.ProfilePeriod = 2 // anchor at rounds 0, 2, 4, …
	opt.Te = 0.8          // lower threshold so several layers fire here
	opt.EarlyStop = false // keep all iterations so the walkthrough is full-length
	scheme := core.NewScheme(opt, rng.New(seed))

	runner, err := tb.NewRunner(scheme)
	if err != nil {
		panic(err)
	}
	// Round 0: anchor (profiles curves). Round 1: FedCA acts on them.
	anchor := runner.RunRound()
	acted := runner.RunRound()
	fmt.Printf("anchor round dur=%.1fs, FedCA round dur=%.1fs\n\n", anchor.Duration(), acted.Duration())

	curves := scheme.Profiler(0).Curves()
	net := tb.Nets.New64()
	ranges := net.ParamRanges()
	fmt.Printf("client 0: profiled curves from anchor round %d (K=%d, T_e=%.2f)\n\n", curves.Round, curves.K, opt.Te)
	fmt.Printf("%-14s %-28s %8s\n", "layer", "progress curve", "eager@")
	for l, rg := range ranges {
		curve := curves.Layer[l]
		cross := "-"
		for tau := 1; tau <= curves.K; tau++ {
			if curves.LayerAt(l, tau) >= opt.Te && curves.LayerAt(l, tau-1) < opt.Te {
				cross = fmt.Sprintf("iter %d", tau)
				break
			}
		}
		fmt.Printf("%-14s %-28s %8s\n", rg.Name, report.Sparkline(curve), cross)
	}

	st := runner.SchemeStats()
	fmt.Printf("\nround 1 behaviour: %d eager transmissions stood, %d retransmitted (cos < T_r=%.2f)\n",
		st.EagerSentTotal-st.RetransmitsTotal, st.RetransmitsTotal, opt.Tr)
	for _, u := range acted.Collected {
		fmt.Printf("  client %d: %d eager, %d retransmitted, uploaded %.0f KB\n",
			u.ClientID, u.EagerSent, u.Retransmitted, u.UploadBytes/1024)
	}
}
