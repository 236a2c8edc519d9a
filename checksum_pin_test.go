package fedca_test

import (
	"testing"
	_ "unsafe" // go:linkname

	fedca "fedca"
)

// kernelAVX2 and kernelVecMath are internal/tensor's two dispatch switches
// (the AVX2 kernels; the FMA sigmoid and tanh), set there once from CPUID and
// written by nothing else but tests.
//
//go:linkname kernelAVX2 fedca/internal/tensor.useAVX2
var kernelAVX2 bool

//go:linkname kernelVecMath fedca/internal/tensor.useVecMath
var kernelVecMath bool

// TestParamsChecksumPinned runs two rounds of each benchmark workload at its
// smoke-test size (benchmark/workloads.go, options(seed, tiny)) and compares
// the global model's checksum with the value recorded before the compute
// floor was rebuilt (commit 4c90e5b, scalar float64 / SSE2 float32 kernels).
// The kernels, the patch-matrix layouts and the skipped first-layer input
// gradient may change how the arithmetic is scheduled, never a single bit of
// its result, so a mismatch here is a kernel bug, not a tolerance question.
// Each case runs twice, on the portable kernels and then on the ones the CPU
// selected, and must give the pinned value both times: a checksum does not
// depend on the machine.
func TestParamsChecksumPinned(t *testing.T) {
	tiny := func(o *fedca.Options) {
		o.LocalIters, o.BatchSize = 2, 4
		o.TrainSamples, o.TestSamples = 96, 32
		if o.Fleet > 0 {
			o.Fleet = 1000
		} else {
			o.Clients = 3
		}
	}
	cases := []struct {
		name      string
		configure func(o *fedca.Options)
		want      string
	}{
		{"cnn-fedca", func(o *fedca.Options) {
			o.Model, o.Scheme = "cnn", "fedca"
			o.Clients, o.LocalIters, o.BatchSize = 8, 40, 32
		}, "a62f33242d0e3bc7f0cf4765d78d0a852d1ecd6743a714c28df6e7efbb38deb5"},
		{"wrn-fedca-qsgd", func(o *fedca.Options) {
			o.Model, o.Scheme = "wrn", "fedca"
			o.Clients, o.LocalIters, o.BatchSize = 4, 20, 16
			o.Compress = "qsgd7"
		}, "7722af7ada84f175a797ae757bd50010a8743a691ad11633aa4e8bffb9ad77d7"},
		{"lstm-fedavg-chaos", func(o *fedca.Options) {
			o.Model, o.Scheme = "lstm", "fedavg"
			o.Clients, o.LocalIters, o.BatchSize = 16, 40, 32
			o.AggregateFraction = 0.9
			o.Chaos = "drop=0.1,slow=0.3,degrade=0.2,xfail=0.02,corrupt=0.01"
		}, "ed1e32aa153942e66a45dfe2ab7d75682e30c94df5be25d24f4559dc5efeca43"},
		// The same federation at float32, whose cell widens, evaluates in
		// float64 and narrows on store: recorded before the cell became one
		// kernel (commit ac7e9c3).
		{"lstm-fedavg-chaos-f32", func(o *fedca.Options) {
			o.Model, o.Scheme = "lstm", "fedavg"
			o.Clients, o.LocalIters, o.BatchSize = 16, 40, 32
			o.AggregateFraction = 0.9
			o.Chaos = "drop=0.1,slow=0.3,degrade=0.2,xfail=0.02,corrupt=0.01"
			o.DType = "f32"
		}, "4171ad32655136041c6afe5ff5be7cd5291d5bd94fd06253a5e15366c2969b2e"},
		{"fleet-cnn-f32", func(o *fedca.Options) {
			o.Model, o.Scheme = "cnn", "fedavg"
			o.Fleet, o.Participation = 50000, 0.01
			o.LocalIters, o.BatchSize = 3, 10
			o.TrainSamples, o.TestSamples = 2000, 400
			o.AggregateFraction = 1
			o.DType = "f32"
		}, "654ceccfe8b2975399deada9500daf282b955697367ffa4660fba1855f96cffe"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			avx2, vecMath := kernelAVX2, kernelVecMath
			defer func() { kernelAVX2, kernelVecMath = avx2, vecMath }()
			for _, path := range []string{"portable", "detected"} {
				kernelAVX2, kernelVecMath = path == "detected" && avx2, path == "detected" && vecMath
				o := fedca.DefaultOptions()
				o.Seed = 42
				c.configure(&o)
				tiny(&o)
				f, err := fedca.New(o)
				if err != nil {
					t.Fatal(err)
				}
				f.Run(2)
				if got := f.ParamsChecksum(); got != c.want {
					t.Fatalf("%s kernels: ParamsChecksum after 2 rounds = %s, want %s", path, got, c.want)
				}
			}
		})
	}
}
