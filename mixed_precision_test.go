package fedca_test

import (
	"math"
	"testing"

	fedca "fedca"
	"fedca/internal/cputok"
)

func f32Opts() fedca.Options {
	o := tinyOpts()
	o.DType = "f32"
	return o
}

// TestFacadeFloat32Runs pins that the mixed-precision path is reachable from
// the public facade and deterministic: two identical f32 runs produce
// identical rounds.
func TestFacadeFloat32Runs(t *testing.T) {
	run := func() []fedca.Round {
		f, err := fedca.New(f32Opts())
		if err != nil {
			t.Fatal(err)
		}
		return f.Run(3)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("f32 round %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFacadeFloat32WorkerInvariance pins the f32 determinism contract at the
// round level: the result is bit-identical at any CPU-token cap. Every f32
// reduction in the math floor (GEMM row blocks, conv per-sample gradient
// buffers) is ordered independently of worker count, so narrowing the dtype
// must not reintroduce scheduling-dependent float accumulation.
func TestFacadeFloat32WorkerInvariance(t *testing.T) {
	old := cputok.Default().Setting()
	defer cputok.Default().SetCap(old)

	var base []fedca.Round
	for _, cap := range []int{1, 2, 4} {
		cputok.Default().SetCap(cap)
		f, err := fedca.New(f32Opts())
		if err != nil {
			t.Fatal(err)
		}
		rs := f.Run(3)
		if base == nil {
			base = rs
			continue
		}
		for i := range rs {
			if rs[i].Accuracy != base[i].Accuracy || rs[i].Collected != base[i].Collected {
				t.Fatalf("cap %d round %d = %+v, want %+v", cap, i, rs[i], base[i])
			}
		}
	}
}

// TestFacadeFloat32TracksFloat64 pins the documented mixed-precision
// tolerance: f32 training follows a different arithmetic trajectory than f64,
// but at the fig7-tiny workload the accuracy curves must agree within 0.05
// absolute at every round, for the CNN and for the LSTM (measured: identical
// at 128 test samples for both — the divergence is far below the accuracy
// quantum). Each model must also have learned: the LSTM reaches 0.46 in the
// five rounds where the CNN passes 0.5.
func TestFacadeFloat32TracksFloat64(t *testing.T) {
	for _, m := range []struct {
		model string
		floor float64
	}{{"cnn", 0.5}, {"lstm", 0.4}} {
		t.Run(m.model, func(t *testing.T) {
			run := func(dt string) []fedca.Round {
				o := tinyOpts()
				o.Model, o.DType = m.model, dt
				f, err := fedca.New(o)
				if err != nil {
					t.Fatal(err)
				}
				return f.Run(5)
			}
			a, b := run("f64"), run("f32")
			for i := range a {
				if d := math.Abs(a[i].Accuracy - b[i].Accuracy); d > 0.05 {
					t.Fatalf("round %d: f64 acc %.4f vs f32 acc %.4f (diff %.4f > 0.05)", i, a[i].Accuracy, b[i].Accuracy, d)
				}
			}
			last := len(a) - 1
			if a[last].Accuracy < m.floor || b[last].Accuracy < m.floor {
				t.Fatalf("training did not converge: f64 %.4f, f32 %.4f (floor %.2f)", a[last].Accuracy, b[last].Accuracy, m.floor)
			}
		})
	}
}

// TestFacadeFloat32AllSchemes runs one f32 round under every aggregation
// scheme: FedProx exercises the f32 proximal gradient modifier, the rest the
// promoted no-op controller.
func TestFacadeFloat32AllSchemes(t *testing.T) {
	for _, scheme := range []string{"fedavg", "fedprox", "fedada", "fedca", "oort", "safa"} {
		o := f32Opts()
		o.Scheme = scheme
		f, err := fedca.New(o)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r := f.RunRound(); r.Collected == 0 {
			t.Fatalf("%s: empty f32 round", scheme)
		}
	}
}

// TestFacadeDTypeErrors pins rejection of unknown dtypes at construction.
func TestFacadeDTypeErrors(t *testing.T) {
	o := tinyOpts()
	o.DType = "f16"
	if _, err := fedca.New(o); err == nil {
		t.Fatal("unknown dtype must error")
	}
}
