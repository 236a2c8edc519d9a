package baseline_test

import (
	"math"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/trace"
)

func tinyWorkload() expcfg.Workload {
	w := expcfg.CNN()
	w.Img.Height, w.Img.Width = 8, 8
	w.Img.Classes = 4
	w.FL.BaseIterTime = 0.1
	w.FL.ModelBytes = 0
	w.FL.LocalIters, w.FL.BatchSize = 8, 16
	w.TrainN, w.TestN = 256, 128
	return w
}

func TestNames(t *testing.T) {
	if (baseline.FedAvg{}).Name() != "fedavg" {
		t.Fatal("fedavg name")
	}
	if (baseline.FedProx{Mu: 0.01}).Name() != "fedprox" {
		t.Fatal("fedprox name")
	}
	if (baseline.FedAda{K: 10}).Name() != "fedada" {
		t.Fatal("fedada name")
	}
}

func TestFedAvgPlanHasNoDeadline(t *testing.T) {
	plan := baseline.FedAvg{}.PlanRound(0, fl.NewHistory())
	if !math.IsInf(plan.Deadline, 1) || plan.IterBudget != nil {
		t.Fatalf("FedAvg plan = %+v", plan)
	}
}

// step runs one round of a one-client federation under s and returns how
// far it moved the global model: the client's delta, up to the rounding of
// the weighted mean.
func step(t *testing.T, s fl.Scheme, seed uint64) []float64 {
	t.Helper()
	r, err := expcfg.Build(tinyWorkload(), 1, trace.Config{}, seed).NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	before := r.GlobalFlat()
	r.RunRound()
	moved := r.GlobalFlat()
	for i := range moved {
		moved[i] -= before[i]
	}
	return moved
}

func TestFedProxKeepsParamsCloserToGlobal(t *testing.T) {
	// The proximal term must shrink ‖w_local − w_global‖ relative to FedAvg
	// on the identical trajectory.
	dist := func(s fl.Scheme) float64 {
		d := 0.0
		for _, v := range step(t, s, 1) {
			d += v * v
		}
		return math.Sqrt(d)
	}
	avg := dist(baseline.FedAvg{})
	prox := dist(baseline.FedProx{Mu: 1.0}) // large μ for a clear effect
	if prox >= avg {
		t.Fatalf("FedProx delta norm %v not smaller than FedAvg %v", prox, avg)
	}
}

func TestFedProxSmallMuNearFedAvg(t *testing.T) {
	a := step(t, baseline.FedAvg{}, 2)
	p := step(t, baseline.FedProx{Mu: 1e-9}, 2)
	var diff, norm float64
	for i := range a {
		diff += (a[i] - p[i]) * (a[i] - p[i])
		norm += a[i] * a[i]
	}
	if math.Sqrt(diff) > 1e-4*math.Sqrt(norm) {
		t.Fatalf("μ→0 should approach FedAvg: rel diff %v", math.Sqrt(diff/norm))
	}
}

func TestFedAdaFirstRoundUncapped(t *testing.T) {
	plan := baseline.FedAda{K: 10}.PlanRound(0, fl.NewHistory())
	if plan.IterBudget != nil {
		t.Fatal("no history: budgets must be empty")
	}
	if !math.IsInf(plan.Deadline, 1) {
		t.Fatal("no history: no deadline")
	}
}

func TestFedAdaClampsStragglers(t *testing.T) {
	h := fl.NewHistory()
	// Client 0 fast (0.1 s/iter), client 1 slow (1 s/iter), 8 more fast.
	h.Observe(fl.Update{ClientID: 0, Iterations: 10, TrainTime: 1})
	for i := 2; i < 10; i++ {
		h.Observe(fl.Update{ClientID: i, Iterations: 10, TrainTime: 1})
	}
	h.Observe(fl.Update{ClientID: 1, Iterations: 10, TrainTime: 10})
	ada := baseline.FedAda{K: 10}
	plan := ada.PlanRound(1, h)
	// Deadline should be the fast cluster's round time (1 s).
	if math.Abs(plan.Deadline-1) > 1e-9 {
		t.Fatalf("deadline = %v, want 1", plan.Deadline)
	}
	if plan.IterBudget[0] != 10 {
		t.Fatalf("fast client budget = %d, want full 10", plan.IterBudget[0])
	}
	if b := plan.IterBudget[1]; b != 1 {
		t.Fatalf("straggler budget = %d, want 1 (deadline/iterTime)", b)
	}
}

func TestFedAdaMinItersFloor(t *testing.T) {
	h := fl.NewHistory()
	h.Observe(fl.Update{ClientID: 0, Iterations: 100, TrainTime: 1})
	h.Observe(fl.Update{ClientID: 1, Iterations: 100, TrainTime: 1000})
	ada := baseline.FedAda{K: 100, MinIters: 7}
	plan := ada.PlanRound(1, h)
	if plan.IterBudget[1] != 7 {
		t.Fatalf("floor not applied: %d", plan.IterBudget[1])
	}
}

func TestFedAdaEndToEndReducesRoundTime(t *testing.T) {
	w := tinyWorkload()
	tcfg := trace.Config{HeterogeneitySigma: 1.0}
	mean := func(s fl.Scheme) float64 {
		tb := expcfg.Build(w, 8, tcfg, 3)
		r, err := tb.NewRunner(s)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for i := 0; i < 4; i++ {
			res := r.RunRound()
			if i >= 1 { // round 0 has no history for FedAda
				total += res.Duration()
			}
		}
		return total / 3
	}
	avg := mean(baseline.FedAvg{})
	ada := mean(baseline.FedAda{K: w.FL.LocalIters})
	if ada >= avg {
		t.Fatalf("FedAda mean round %v not shorter than FedAvg %v", ada, avg)
	}
}
