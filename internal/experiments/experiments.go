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

	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/trace"
)

// Scale selects how large an experiment instance to run. The mechanics are
// identical at every scale; only statistical resolution changes.
type Scale struct {
	Name       string
	Clients    int
	Rounds     int // cap for convergence experiments
	K          int // local iterations per round
	TrainN     int
	TestN      int
	BatchSize  int
	EarlyRound int // "round 10" analogue for curve probes
	LateRound  int // "round 200" analogue
	Window     int // consecutive rounds for Fig. 4 (paper: 5)

	ProfilePeriod int // FedCA anchor spacing

	// DType is the client training precision ("" = float64). It changes the
	// training trajectory, so it is part of the cell cache key.
	DType string
}

// tinyScale is the scale of CI and the committed golden output: minutes, not hours.
func tinyScale() Scale {
	return Scale{
		Name: "tiny", Clients: 8, Rounds: 40, K: 25,
		TrainN: 1024, TestN: 512, BatchSize: 16,
		EarlyRound: 1, LateRound: 12, Window: 3,
		ProfilePeriod: 5,
	}
}

// smallScale is the default scale of the fedca-bench binary.
func smallScale() Scale {
	return Scale{
		Name: "small", Clients: 32, Rounds: 80, K: 50,
		TrainN: 4096, TestN: 1024, BatchSize: 32,
		EarlyRound: 3, LateRound: 30, Window: 5,
		ProfilePeriod: 10,
	}
}

// fullScale approximates the paper's setup: 128 clients, K = 125. Expect long
// (virtual-time simulation is fast, but real training of 128 clients × 125
// iterations per round is hours of CPU).
func fullScale() Scale {
	return Scale{
		Name: "full", Clients: 128, Rounds: 200, K: 125,
		TrainN: 16384, TestN: 2048, BatchSize: 50,
		EarlyRound: 10, LateRound: 150, Window: 5,
		ProfilePeriod: 10,
	}
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

// Workload instantiates one of the paper's three workloads at this scale.
func (s Scale) Workload(model string) (expcfg.Workload, error) {
	w, err := expcfg.ByName(model)
	if err != nil {
		return w, err
	}
	w = w.Shrink(s.K, s.TrainN, s.TestN, s.BatchSize)
	w.FL.DType = s.DType
	if s.Name == "tiny" {
		w = w.Tiny()
	}
	return w, nil
}

// FedCAOptions returns the paper's default FedCA options at this scale.
func (s Scale) FedCAOptions() core.Options {
	o := core.DefaultOptions(s.K)
	o.ProfilePeriod = s.ProfilePeriod
	return o
}

// TraceConfig returns the paper's heterogeneity + dynamicity model.
func (s Scale) TraceConfig() trace.Config { return trace.PaperConfig() }

// Result is a regenerated experiment artifact.
type Result struct {
	ID   string
	Text string
	// Structured payloads for programmatic assertions; which fields are set
	// depends on the experiment.
	Series map[string][]float64
	Values map[string]float64
}

func newResult(id string) *Result {
	return &Result{ID: id, Series: make(map[string][]float64), Values: make(map[string]float64)}
}

// cellKey canonically encodes every Scale field that shapes a run, so cells
// from differently-parameterized scales — even ones sharing a Name, like the
// test-only micro scale — never collide in the cross-process result cache.
func (s Scale) cellKey() string {
	dt := s.DType
	if dt == "" {
		dt = "f64"
	}
	return fmt.Sprintf("%s:c%d:r%d:k%d:n%d-%d:b%d:e%d:l%d:w%d:p%d:%s",
		s.Name, s.Clients, s.Rounds, s.K, s.TrainN, s.TestN, s.BatchSize,
		s.EarlyRound, s.LateRound, s.Window, s.ProfilePeriod, dt)
}
