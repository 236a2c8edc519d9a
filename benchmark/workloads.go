package main

import "fedca"

// defaultSeconds is the measured time one run is sized for (BENCHMARK.json's
// run_seconds). -seconds scales every workload's round count linearly from it.
const defaultSeconds = 10

// workload is one named set of inputs: the fedca.Options the program
// receives, how many rounds are measured, and the correctness constants.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (also in BENCHMARK.json).
	Why string
	// configure sets everything that differs from fedca.DefaultOptions.
	configure func(o *fedca.Options)
	// Rounds is the measured round count at -seconds = defaultSeconds, sized
	// on a 2-core box; one warm-up round (round 0, part of setup_s) always
	// precedes them. Round counts are re-tuned only when the time cap of the
	// whole benchmark demands it, never per commit.
	Rounds int
	// Target is the test accuracy whose crossing the time-to-target metrics
	// report; Floor is the lowest acceptable final_accuracy. Both are
	// calibrated once, over thirty to sixty seeds, so that every seed reaches
	// the target with two measured rounds or more to spare and ends 0.1 or
	// more above the floor (with 8 non-IID clients one seed in sixty plateaus
	// at 0.89 where the others reach 0.95-1.0), and stay well above chance
	// (0.10; 0.05 for wrn) so that broken learning fails.
	Target, Floor float64
}

// The four workloads. Each stresses a layer another leaves idle: core (1, 2
// vs 3, 4), compress (2 only), chaos + offline reduce (3 only), materialise +
// online fold + f32 (4 only), conv f64 (1) vs LSTM (3) vs residual/BN (2) vs
// conv f32 (4).
var workloads = []workload{
	{
		Name: "cnn-fedca",
		Why:  "The paper's main loop: nn conv/dense f64 training dominates, core profiles Eq. 1 on the anchor round and early-stops/eager-sends on the rest.",
		configure: func(o *fedca.Options) {
			o.Model, o.Scheme = "cnn", "fedca"
			o.Clients, o.LocalIters, o.BatchSize = 8, 40, 32
		},
		Rounds: 6, Target: 0.70, Floor: 0.75,
	},
	{
		Name: "wrn-fedca-qsgd",
		Why:  "Communication-bound row of Table 1 (139 MB model, qsgd7 uploads): compress, simnet, core eager/retransmit and nn residual/batch-norm do the work; largest RSS.",
		configure: func(o *fedca.Options) {
			o.Model, o.Scheme = "wrn", "fedca"
			o.Clients, o.LocalIters, o.BatchSize = 4, 20, 16
			o.Compress = "qsgd7"
		},
		Rounds: 4, Target: 0.15, Floor: 0.18,
	},
	{
		Name: "lstm-fedavg-chaos",
		Why:  "Bypasses core: partial aggregation, offline tree reduce, update validation, quarantine and dropout paths, a chaos plan on every client-round, LSTM cell instead of conv.",
		configure: func(o *fedca.Options) {
			o.Model, o.Scheme = "lstm", "fedavg"
			o.Clients, o.LocalIters, o.BatchSize = 16, 40, 32
			o.AggregateFraction = 0.9
			o.Chaos = "drop=0.1,slow=0.3,degrade=0.2,xfail=0.02,corrupt=0.01"
			// Without a norm bound an exploded (finite) update passes
			// validation and destroys the model, on most seeds within twenty
			// rounds; the bound makes all three corruption kinds quarantine.
			o.MaxDeltaNorm = 1e6
		},
		Rounds: 8, Target: 0.40, Floor: 0.40,
	},
	{
		Name: "fleet-cnn-f32",
		Why:  "Per-client fixed cost dominates: 50000-client virtual fleet, cohort 500, lazy materialisation, narrow/widen, online streaming fold, slot recycling; only 3 short f32 iterations per client.",
		configure: func(o *fedca.Options) {
			o.Model, o.Scheme = "cnn", "fedavg"
			o.Fleet, o.Participation = 50000, 0.01
			o.LocalIters, o.BatchSize = 3, 10
			o.TrainSamples, o.TestSamples = 2000, 400
			o.AggregateFraction = 1
			o.DType = "f32"
		},
		Rounds: 4, Target: 0.25, Floor: 0.35,
	},
}

// options builds the program's only input from the benchmark seed. tiny
// shrinks the workload to smoke-test size (3 clients or a cohort of 10, K=2)
// without changing which code paths it takes.
func (w workload) options(seed uint64, tiny bool) fedca.Options {
	o := fedca.DefaultOptions()
	o.Seed = seed
	w.configure(&o)
	if tiny {
		o.LocalIters, o.BatchSize = 2, 4
		o.TrainSamples, o.TestSamples = 96, 32
		if o.Fleet > 0 {
			o.Fleet = 1000
		} else {
			o.Clients = 3
		}
	}
	return o
}

// rounds is the measured round count for a run of the given length.
func (w workload) rounds(seconds float64) int {
	n := int(float64(w.Rounds)*seconds/defaultSeconds + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
