package nn

import (
	"math"
	"testing"
	"testing/quick"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// TestLSTMLongSequenceStability: gates must not saturate into NaN over long
// sequences with large inputs.
func TestLSTMLongSequenceStability(t *testing.T) {
	r := rng.New(100)
	l := NewLSTMOf[float64]("rnn", 4, 8, 64, 1, r)
	net := NewNetworkOf[float64](l, NewDenseOf[float64]("fc", 8, 2, r))
	x := tensor.New(2, 64*4)
	for i := range x.Data() {
		x.Data()[i] = r.Normal(0, 5) // large inputs
	}
	logits := net.Forward(x, true)
	for _, v := range logits.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("unstable forward: %v", v)
		}
	}
	_, d := softmaxCrossEntropy(logits, []int{0, 1})
	net.Backward(d)
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data() {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("unstable gradient in %s", p.Name)
			}
		}
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	r := rng.New(101)
	cases := []LayerOf[float64]{
		NewDenseOf[float64]("d", 2, 2, r),
		NewReLUOf[float64](2),
		NewMaxPool2DOf[float64](1, 2, 2, 2, 2),
		NewBatchNorm2DOf[float64]("bn", 1, 2, 2),
	}
	for i, l := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("layer %d: expected panic on Backward without Forward", i)
				}
			}()
			l.Backward(tensor.New(1, l.OutDim()))
		}()
	}
}

func TestConvBackwardWithoutForwardPanics(t *testing.T) {
	r := rng.New(102)
	geom := tensor.NewConvGeom(1, 4, 4, 3, 3, 1, 1)
	c := NewConv2DOf[float64]("c", geom, 2, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Backward(tensor.New(1, c.OutDim()))
}

func TestSGDReset(t *testing.T) {
	p := newParamOf[float64]("w", 1)
	p.Grad.Data()[0] = 1
	opt := NewSGDOf[float64](1, 0.9, 0)
	opt.Step([]*Param{p}) // v = 1
	opt.Reset()
	p.Grad.Data()[0] = 1
	opt.Step([]*Param{p}) // v restarts at 1 (not 1.9)
	if math.Abs(p.Value.Data()[0]+2) > 1e-12 {
		t.Fatalf("Reset did not clear momentum: %v", p.Value.Data()[0])
	}
}

func TestSetFlatParamsSizeMismatchPanics(t *testing.T) {
	r := rng.New(103)
	net := NewNetworkOf[float64](NewDenseOf[float64]("d", 2, 2, r))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.SetFlatParams(make([]float64, 3))
}

// Property: for any flat vector of the right size, SetFlatParams followed by
// FlatParams is the identity.
func TestFlatParamsRoundTripProperty(t *testing.T) {
	r := rng.New(104)
	net := NewNetworkOf[float64](NewDenseOf[float64]("d", 3, 2, r), NewDenseOf[float64]("e", 2, 2, r))
	n := net.NumParams()
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		in := make([]float64, n)
		for i := range in {
			in[i] = rr.Normal(0, 10)
		}
		net.SetFlatParams(in)
		out := net.FlatParams()
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax-CE loss is non-negative and its gradient has zero row
// sums for arbitrary finite logits.
func TestSoftmaxCEProperty(t *testing.T) {
	f := func(a, b, c float64, label uint8) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.Abs(v) > 500 {
				return true
			}
		}
		logits := tensor.ViewOf(nil, []float64{a, b, c}, 1, 3)
		y := int(label) % 3
		loss, d := softmaxCrossEntropy(logits, []int{y})
		if loss < -1e-12 || math.IsNaN(loss) {
			return false
		}
		sum := 0.0
		for _, v := range d.Data() {
			sum += v
		}
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCELabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	softmaxCrossEntropy(tensor.New(1, 2), []int{5})
}

func TestSoftmaxCELabelsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	softmaxCrossEntropy(tensor.New(2, 2), []int{0})
}

// TestBatchNormSingleSpatialElement: BN over C channels of 1×1 maps (the
// degenerate but legal case after global pooling-style shapes).
func TestBatchNormSingleSpatialElement(t *testing.T) {
	bn := NewBatchNorm2DOf[float64]("bn", 2, 1, 1)
	x := tensor.ViewOf(nil, []float64{1, 10, 3, 30}, 2, 2)
	y := bn.Forward(x, true)
	// Each channel normalized over the batch of 2: mean (2,20), so outputs ±1.
	// ε = 1e-5 inside the variance keeps |y| slightly below 1.
	if math.Abs(math.Abs(y.Data()[0])-1) > 1e-4 {
		t.Fatalf("bn 1x1 wrong: %v", y.Data())
	}
	bn.Backward(tensor.New(2, 2))
}

func TestBatchNormConstantInput(t *testing.T) {
	// Zero variance must not divide by zero.
	bn := NewBatchNorm2DOf[float64]("bn", 1, 2, 2)
	x := tensor.New(3, 4)
	x.Fill(7)
	y := bn.Forward(x, true)
	for _, v := range y.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bn constant input produced %v", v)
		}
	}
	dx := bn.Backward(tensor.New(3, 4))
	for _, v := range dx.Data() {
		if math.IsNaN(v) {
			t.Fatal("bn backward NaN")
		}
	}
}
