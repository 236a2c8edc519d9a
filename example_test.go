package fedca_test

import (
	"fmt"

	fedca "fedca"
)

// The smallest possible FedCA run: assemble a federation and run rounds.
func ExampleNew() {
	opts := fedca.DefaultOptions()
	opts.Clients = 4
	opts.LocalIters = 5
	opts.BatchSize = 8
	opts.TrainSamples = 256
	opts.TestSamples = 64
	opts.Seed = 7

	f, err := fedca.New(opts)
	if err != nil {
		panic(err)
	}
	rounds := f.Run(3)
	fmt.Println("rounds:", len(rounds))
	fmt.Println("virtual time advanced:", f.Now() > 0)
	fmt.Println("accuracy in range:", f.Accuracy() >= 0 && f.Accuracy() <= 1)
	// Output:
	// rounds: 3
	// virtual time advanced: true
	// accuracy in range: true
}

// Comparing two schemes on the identical federation (same seed ⇒ same data,
// partitions, model init and speed traces).
func ExampleFederation_RunToAccuracy() {
	run := func(scheme string) fedca.Convergence {
		opts := fedca.DefaultOptions()
		opts.Scheme = scheme
		opts.Clients = 4
		opts.LocalIters = 8
		opts.BatchSize = 8
		opts.TrainSamples = 256
		opts.TestSamples = 64
		opts.Seed = 3
		f, err := fedca.New(opts)
		if err != nil {
			panic(err)
		}
		return f.RunToAccuracy(0.5, 20)
	}
	avg := run("fedavg")
	ca := run("fedca")
	fmt.Println("fedavg reached:", avg.Reached)
	fmt.Println("fedca reached:", ca.Reached)
	fmt.Println("fedca no slower:", ca.TotalSeconds <= avg.TotalSeconds)
	// Output:
	// fedavg reached: true
	// fedca reached: true
	// fedca no slower: true
}

// FedCA's behavioural counters: early stops, eager transmissions and
// retransmissions accumulated over a run.
func ExampleFederation_FedCAStats() {
	opts := fedca.DefaultOptions()
	opts.Clients = 4
	opts.LocalIters = 6
	opts.BatchSize = 8
	opts.TrainSamples = 256
	opts.TestSamples = 64
	opts.FedCA.ProfilePeriod = 2
	f, err := fedca.New(opts)
	if err != nil {
		panic(err)
	}
	f.Run(4)
	stats, ok := f.FedCAStats()
	fmt.Println("is fedca:", ok)
	fmt.Println("profiled anchor client-rounds:", stats.AnchorRounds)
	// Output:
	// is fedca: true
	// profiled anchor client-rounds: 8
}

// FedCA's overlap against classical bit-reduction on a communication-heavy
// deployment: plain FedAvg, FedAvg with 4-bit QSGD quantization (the
// Sec. 2.2 family) and FedCA train the same federation of a 20 MB model.
// Quantization shrinks every upload; FedCA hides upload time behind
// computation instead. The two are orthogonal: `fedca-bench -exp
// ext-compress` runs the combination.
func Example_communication() {
	base := fedca.DefaultOptions()
	base.Clients = 8
	base.LocalIters = 20
	base.BatchSize = 16
	base.TrainSamples = 1024
	base.TestSamples = 512
	base.Seed = 21
	// ~12 s per full upload at 13.7 Mbps, so communication competes with
	// computation.
	base.ModelBytes = 20e6

	fmt.Printf("%-26s %10s %10s %10s\n", "variant", "vtime(s)", "final acc", "last round")
	for _, v := range []struct{ name, scheme, compress string }{
		{"fedavg (full precision)", "fedavg", "none"},
		{"fedavg + qsgd7 (4-bit)", "fedavg", "qsgd7"},
		{"fedca (overlap)", "fedca", "none"},
	} {
		o := base
		o.Scheme = v.scheme
		o.Compress = v.compress
		f, err := fedca.New(o)
		if err != nil {
			panic(err)
		}
		rs := f.Run(10)
		last := rs[len(rs)-1]
		fmt.Printf("%-26s %10.1f %10.4f %9.1fs\n", v.name, f.Now(), f.Accuracy(), last.End-last.Start)
	}
	// Output:
	// variant                      vtime(s)  final acc last round
	// fedavg (full precision)         296.5     0.9980      30.7s
	// fedavg + qsgd7 (4-bit)          187.0     0.9980      17.3s
	// fedca (overlap)                 259.4     0.9980      25.8s
}
