package nn

import (
	"math"
	"testing"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

func TestDropoutEvalPassThrough(t *testing.T) {
	d := NewDropoutOf[float64](0.5, 4, rng.New(1))
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	y := d.Forward(x, false)
	for i := range x.Data() {
		if y.Data()[i] != x.Data()[i] {
			t.Fatal("eval mode must pass through")
		}
	}
}

func TestDropoutZeroProbPassThrough(t *testing.T) {
	d := NewDropoutOf[float64](0, 4, rng.New(2))
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	y := d.Forward(x, true)
	for i := range x.Data() {
		if y.Data()[i] != x.Data()[i] {
			t.Fatal("p=0 must pass through")
		}
	}
	// Backward with no mask passes gradients through too.
	dout := tensor.FromSlice([]float64{5, 6, 7, 8}, 1, 4)
	dx := d.Backward(dout)
	if dx.Data()[0] != 5 {
		t.Fatal("p=0 backward must pass through")
	}
}

func TestDropoutMasksAndScales(t *testing.T) {
	d := NewDropoutOf[float64](0.5, 1000, rng.New(3))
	x := tensor.New(1, 1000)
	x.Fill(1)
	y := d.Forward(x, true)
	zeros, scaled := 0, 0
	for _, v := range y.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1-0.5)
			scaled++
		default:
			t.Fatalf("unexpected value %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("p=0.5 dropped %d of 1000", zeros)
	}
	if zeros+scaled != 1000 {
		t.Fatal("accounting wrong")
	}
	// Inverted dropout keeps the expectation: mean ≈ 1.
	if mean := y.Sum() / 1000; math.Abs(mean-1) > 0.2 {
		t.Fatalf("mean = %v, want ≈1", mean)
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	d := NewDropoutOf[float64](0.3, 100, rng.New(4))
	x := tensor.New(1, 100)
	x.Fill(1)
	y := d.Forward(x, true)
	dout := tensor.New(1, 100)
	dout.Fill(1)
	dx := d.Backward(dout)
	for i := range y.Data() {
		if (y.Data()[i] == 0) != (dx.Data()[i] == 0) {
			t.Fatal("backward mask must match forward mask")
		}
		if y.Data()[i] != 0 && math.Abs(dx.Data()[i]-1/0.7) > 1e-12 {
			t.Fatalf("surviving gradient = %v, want %v", dx.Data()[i], 1/0.7)
		}
	}
}

func TestDropoutReseedDeterminism(t *testing.T) {
	d := NewDropoutOf[float64](0.5, 50, rng.New(5))
	x := tensor.New(1, 50)
	x.Fill(1)
	d.ReseedNoise(99)
	a := d.Forward(x, true).Clone()
	d.Backward(tensor.New(1, 50))
	d.ReseedNoise(99)
	b := d.Forward(x, true)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("same seed must give same mask")
		}
	}
}

func TestDropoutBadProbPanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for p=%v", p)
				}
			}()
			NewDropoutOf[float64](p, 4, rng.New(1))
		}()
	}
}

func TestNetworkReseedNoiseReachesNestedDropout(t *testing.T) {
	r := rng.New(6)
	drop := NewDropoutOf[float64](0.5, 8, rng.New(7))
	block := NewResidualOf[float64]([]LayerOf[float64]{NewDenseOf[float64]("d", 8, 8, r), drop}, nil, 8)
	net := NewNetworkOf[float64](block)
	x := tensor.New(2, 8)
	x.Fill(1)
	net.ReseedNoise(123)
	a := net.Forward(x, true).Clone()
	net.Backward(tensor.New(2, 8))
	net.ReseedNoise(123)
	b := net.Forward(x, true)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("ReseedNoise must reach dropout inside residual blocks")
		}
	}
}

func TestVisitLayersCountsNested(t *testing.T) {
	r := rng.New(8)
	inner := []LayerOf[float64]{NewDenseOf[float64]("a", 4, 4, r), NewReLUOf[float64](4)}
	short := []LayerOf[float64]{NewDenseOf[float64]("s", 4, 4, r)}
	net := NewNetworkOf[float64](NewResidualOf[float64](inner, short, 4), NewDenseOf[float64]("out", 4, 2, r))
	count := 0
	net.VisitLayers(func(LayerOf[float64]) { count++ })
	// residual + 2 body + 1 shortcut + out = 5
	if count != 5 {
		t.Fatalf("visited %d layers, want 5", count)
	}
}

func TestDropoutGradCheck(t *testing.T) {
	// With a frozen mask (same seed re-applied before every forward), dropout
	// is a fixed linear map and must pass the numeric gradient check.
	r := rng.New(9)
	drop := NewDropoutOf[float64](0.4, 6, rng.New(10))
	net := NewNetworkOf[float64](NewDenseOf[float64]("fc1", 5, 6, r), drop, NewDenseOf[float64]("fc2", 6, 3, r))
	x := randInput(r, 3, 5)
	labels := randLabels(r, 3, 3)

	net.ZeroGrad()
	net.ReseedNoise(7)
	logits := net.Forward(x, true)
	_, dlogits := softmaxCrossEntropy(logits, labels)
	net.Backward(dlogits)

	const eps = 1e-5
	p := net.Params()[0]
	d := p.Value.Data()
	g := p.Grad.Data()
	for c := 0; c < 5; c++ {
		i := rng.New(uint64(c)).Intn(len(d))
		orig := d[i]
		d[i] = orig + eps
		net.ReseedNoise(7)
		lp := lossOf(net, x, labels)
		d[i] = orig - eps
		net.ReseedNoise(7)
		lm := lossOf(net, x, labels)
		d[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("dropout gradcheck: analytic %v, numeric %v", g[i], num)
		}
	}
}
