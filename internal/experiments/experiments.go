// Package experiments regenerates every data-bearing table and figure of the
// FedCA paper's evaluation (Table 1, Figs. 2–5, 7–10, and the Sec. 5.5
// overhead numbers) on the simulated testbed. Each experiment is a pure
// function of (Scale, seed); results carry both rendered text and the
// structured series, so cmd/fedca-bench prints them and the package tests
// assert their shapes.
//
// Fig. 1 (a conceptual sketch) and Fig. 6 (a design diagram) carry no data
// and have no generator.
package experiments

import (
	"fmt"

	"fedca/internal/expcfg"
)

// Scale selects how large an experiment instance to run. The mechanics are
// identical at every scale; only statistical resolution changes.
type Scale struct {
	Name       string
	Rounds     int // cap for convergence experiments
	EarlyRound int // "round 10" analogue for curve probes
	LateRound  int // "round 200" analogue
	Window     int // consecutive rounds for Fig. 4 (paper: 5)

	// Base is the run every cell of this scale starts from, and fedca-sim's
	// run at -scale: the population, local iterations, data, batch,
	// geometry and FedCA profiling period, on the paper's heterogeneous and
	// dynamic clients. A cell adds its model, scheme and overrides.
	Base expcfg.Options
}

// scale builds a Scale whose Base is spec over the zero Options.
func scale(name string, rounds, early, late, window int, spec string) Scale {
	s := Scale{Name: name, Rounds: rounds, EarlyRound: early, LateRound: late, Window: window}
	if err := s.Base.Set(spec); err != nil {
		panic(err)
	}
	return s
}

// tinyScale is the scale of CI and the committed golden output: minutes, not hours.
func tinyScale() Scale {
	return scale("tiny", 40, 1, 12, 3,
		"geometry=tiny;clients=8;iters=25;train=1024;test=512;batch=16;hetero=true;dynamic=true;fedca.profileperiod=5")
}

// smallScale is the default scale of the fedca-bench binary.
func smallScale() Scale {
	return scale("small", 80, 3, 30, 5,
		"clients=32;iters=50;train=4096;test=1024;batch=32;hetero=true;dynamic=true;fedca.profileperiod=10")
}

// fullScale approximates the paper's setup: 128 clients, K = 125. Expect long
// (virtual-time simulation is fast, but real training of 128 clients × 125
// iterations per round is hours of CPU).
func fullScale() Scale {
	return scale("full", 200, 10, 150, 5,
		"clients=128;iters=125;train=16384;test=2048;batch=50;hetero=true;dynamic=true;fedca.profileperiod=10")
}

// ScaleByName resolves "tiny", "small" or "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return tinyScale(), nil
	case "small":
		return smallScale(), nil
	case "full":
		return fullScale(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
	}
}

// Result is a regenerated experiment artifact.
type Result struct {
	Text string
	// Structured payloads for programmatic assertions; which fields are set
	// depends on the experiment.
	Series map[string][]float64
	Values map[string]float64
}

func newResult() *Result {
	return &Result{Series: make(map[string][]float64), Values: make(map[string]float64)}
}
