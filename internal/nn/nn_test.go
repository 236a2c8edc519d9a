package nn

import (
	"math"
	"testing"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// softmaxCrossEntropy is SoftmaxCrossEntropyInto with a freshly allocated
// gradient, the shape most tests want.
func softmaxCrossEntropy[F tensor.Float](logits *tensor.TensorOf[F], labels []int) (float64, *tensor.TensorOf[F]) {
	dlogits := tensor.NewOf[F](logits.Dim(0), logits.Dim(1))
	return SoftmaxCrossEntropyInto(logits, labels, dlogits), dlogits
}

// lossOf evaluates the scalar training loss of net on (x, labels) without
// touching gradients. Used as the oracle for numerical gradient checks.
func lossOf(net *Network, x *tensor.Tensor, labels []int) float64 {
	logits := net.Forward(x, true)
	loss, _ := softmaxCrossEntropy(logits, labels)
	return loss
}

// gradCheck compares analytic parameter gradients against central finite
// differences on a subset of coordinates of every parameter.
func gradCheck(t *testing.T, net *Network, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, dlogits := softmaxCrossEntropy(logits, labels)
	net.Backward(dlogits)

	const eps = 1e-5
	r := rng.New(12345)
	for _, p := range net.Params() {
		d := p.Value.Data()
		g := p.Grad.Data()
		// Check up to 6 coordinates per parameter.
		n := len(d)
		checks := 6
		if checks > n {
			checks = n
		}
		for c := 0; c < checks; c++ {
			i := r.Intn(n)
			orig := d[i]
			d[i] = orig + eps
			lp := lossOf(net, x, labels)
			d[i] = orig - eps
			lm := lossOf(net, x, labels)
			d[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-g[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: analytic %v, numeric %v", p.Name, i, g[i], num)
			}
		}
	}
}

// layerwiseBackward is the per-layer backward chain: every layer's own
// Backward, the first one included, so it returns dL/d(input) — which
// NetworkOf.Backward no longer computes.
func layerwiseBackward[F tensor.Float](net *NetworkOf[F], dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	for i := len(net.Layers) - 1; i >= 0; i-- {
		dout = net.Layers[i].Backward(dout)
	}
	return dout
}

// inputGradCheck verifies the dx the per-layer backward chain returns
// against finite differences on the input.
func inputGradCheck(t *testing.T, net *Network, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, dlogits := softmaxCrossEntropy(logits, labels)
	dx := layerwiseBackward(net, dlogits)

	const eps = 1e-5
	r := rng.New(999)
	d := x.Data()
	g := dx.Data()
	for c := 0; c < 8; c++ {
		i := r.Intn(len(d))
		orig := d[i]
		d[i] = orig + eps
		lp := lossOf(net, x, labels)
		d[i] = orig - eps
		lm := lossOf(net, x, labels)
		d[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-g[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input[%d]: analytic %v, numeric %v", i, g[i], num)
		}
	}
}

func randInput(r *rng.RNG, b, dim int) *tensor.Tensor {
	x := tensor.New(b, dim)
	for i := range x.Data() {
		x.Data()[i] = r.Normal(0, 1)
	}
	return x
}

func randLabels(r *rng.RNG, b, classes int) []int {
	ls := make([]int, b)
	for i := range ls {
		ls[i] = r.Intn(classes)
	}
	return ls
}

func TestDenseForwardKnown(t *testing.T) {
	r := rng.New(1)
	d := NewDenseOf[float64]("fc", 2, 2, r)
	copy(d.W.Value.Data(), []float64{1, 2, 3, 4})
	copy(d.B.Value.Data(), []float64{10, 20})
	x := tensor.ViewOf(nil, []float64{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.Data()[0] != 13 || y.Data()[1] != 27 {
		t.Fatalf("Dense forward = %v, want [13 27]", y.Data())
	}
}

func TestDenseGradCheck(t *testing.T) {
	r := rng.New(2)
	net := NewNetworkOf[float64](NewDenseOf[float64]("fc1", 6, 5, r), NewReLUOf[float64](5), NewDenseOf[float64]("fc2", 5, 3, r))
	x := randInput(r, 4, 6)
	gradCheck(t, net, x, randLabels(r, 4, 3), 1e-4)
	inputGradCheck(t, net, x, randLabels(r, 4, 3), 1e-4)
}

func naiveConvForward(c *Conv2DOf[float64], x *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	batch := x.Dim(0)
	y := tensor.New(batch, c.OutDim())
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					sum := c.B.Value.Data()[oc]
					for ic := 0; ic < g.InC; ic++ {
						for ky := 0; ky < g.KH; ky++ {
							for kx := 0; kx < g.KW; kx++ {
								iy := oy*g.Stride - g.Pad + ky
								ix := ox*g.Stride - g.Pad + kx
								if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
									continue
								}
								w := c.W.Value.Data()[oc*c.W.Value.Dim(1)+ic*g.KH*g.KW+ky*g.KW+kx]
								xv := x.Data()[b*x.Dim(1)+ic*g.InH*g.InW+iy*g.InW+ix]
								sum += w * xv
							}
						}
					}
					y.Data()[b*y.Dim(1)+oc*g.OutH*g.OutW+oy*g.OutW+ox] = sum
				}
			}
		}
	}
	return y
}

func TestConvForwardMatchesNaive(t *testing.T) {
	r := rng.New(3)
	geom := tensor.NewConvGeom(2, 7, 6, 3, 3, 2, 1)
	c := NewConv2DOf[float64]("conv", geom, 4, r)
	x := randInput(r, 3, c.InDim())
	got := c.Forward(x, false)
	want := naiveConvForward(c, x)
	for i := range got.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > 1e-9 {
			t.Fatalf("conv forward mismatch at %d: %v vs %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestConvGradCheck(t *testing.T) {
	r := rng.New(4)
	geom := tensor.NewConvGeom(2, 5, 5, 3, 3, 1, 1)
	conv := NewConv2DOf[float64]("conv", geom, 3, r)
	flat := conv.OutDim()
	net := NewNetworkOf[float64](conv, NewReLUOf[float64](flat), NewDenseOf[float64]("fc", flat, 3, r))
	x := randInput(r, 2, conv.InDim())
	gradCheck(t, net, x, randLabels(r, 2, 3), 1e-4)
	inputGradCheck(t, net, x, randLabels(r, 2, 3), 1e-4)
}

func TestMaxPoolKnown(t *testing.T) {
	p := NewMaxPool2DOf[float64](1, 4, 4, 2, 2)
	x := tensor.ViewOf(nil, []float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 16)
	y := p.Forward(x, true)
	want := []float64{4, 8, 12, 16}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("maxpool[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
	dout := tensor.ViewOf(nil, []float64{1, 2, 3, 4}, 1, 4)
	dx := p.Backward(dout)
	// Gradient must land exactly on the argmax positions.
	want = make([]float64, 16)
	want[5], want[7], want[13], want[15] = 1, 2, 3, 4
	for i, v := range dx.Data() {
		if v != want[i] {
			t.Fatalf("maxpool backward wrong: %v", dx.Data())
		}
	}
}

func TestMaxPoolGradCheck(t *testing.T) {
	r := rng.New(5)
	geom := tensor.NewConvGeom(1, 6, 6, 3, 3, 1, 1)
	conv := NewConv2DOf[float64]("conv", geom, 2, r)
	pool := NewMaxPool2DOf[float64](2, 6, 6, 2, 2)
	net := NewNetworkOf[float64](conv, pool, NewDenseOf[float64]("fc", pool.OutDim(), 2, r))
	x := randInput(r, 2, conv.InDim())
	gradCheck(t, net, x, randLabels(r, 2, 2), 1e-4)
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool2DOf[float64](2, 2, 2)
	x := tensor.ViewOf(nil, []float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 8)
	y := g.Forward(x, true)
	if y.Data()[0] != 2.5 || y.Data()[1] != 25 {
		t.Fatalf("gap forward = %v", y.Data())
	}
	dx := g.Backward(tensor.ViewOf(nil, []float64{4, 8}, 1, 2))
	if dx.Data()[0] != 1 || dx.Data()[4] != 2 {
		t.Fatalf("gap backward = %v", dx.Data())
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	r := rng.New(6)
	bn := NewBatchNorm2DOf[float64]("bn", 3, 4, 4)
	x := randInput(r, 8, bn.OutDim())
	// Shift channel 1 far away to verify per-channel normalization.
	for i := 0; i < 8; i++ {
		for j := 16; j < 32; j++ {
			x.Data()[i*48+j] += 100
		}
	}
	y := bn.Forward(x, false)
	spatial := 16
	for c := 0; c < 3; c++ {
		sum, sum2 := 0.0, 0.0
		for b := 0; b < 8; b++ {
			for j := 0; j < spatial; j++ {
				v := y.Data()[b*y.Dim(1)+c*spatial+j]
				sum += v
				sum2 += v * v
			}
		}
		n := float64(8 * spatial)
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean = %v, want 0", c, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d variance = %v, want ≈1", c, variance)
		}
	}
}

func TestBatchNormGradCheck(t *testing.T) {
	r := rng.New(7)
	geom := tensor.NewConvGeom(2, 4, 4, 3, 3, 1, 1)
	conv := NewConv2DOf[float64]("conv", geom, 3, r)
	bn := NewBatchNorm2DOf[float64]("bn", 3, 4, 4)
	net := NewNetworkOf[float64](conv, bn, NewReLUOf[float64](bn.OutDim()), NewDenseOf[float64]("fc", bn.OutDim(), 2, r))
	x := randInput(r, 4, conv.InDim())
	gradCheck(t, net, x, randLabels(r, 4, 2), 1e-3)
	inputGradCheck(t, net, x, randLabels(r, 4, 2), 1e-3)
}

func TestResidualGradCheck(t *testing.T) {
	r := rng.New(8)
	geom := tensor.NewConvGeom(2, 4, 4, 3, 3, 1, 1)
	body := []LayerOf[float64]{
		NewConv2DOf[float64]("res.0", geom, 2, r),
		NewReLUOf[float64](2 * 16),
		NewConv2DOf[float64]("res.1", geom, 2, r),
	}
	block := NewResidualOf[float64](body, nil, 2*16)
	net := NewNetworkOf[float64](block, NewDenseOf[float64]("fc", 32, 2, r))
	x := randInput(r, 2, 32)
	gradCheck(t, net, x, randLabels(r, 2, 2), 1e-4)
	inputGradCheck(t, net, x, randLabels(r, 2, 2), 1e-4)
}

func TestResidualShortcutGradCheck(t *testing.T) {
	r := rng.New(9)
	geomBody := tensor.NewConvGeom(2, 4, 4, 3, 3, 2, 1)
	geomShort := tensor.NewConvGeom(2, 4, 4, 1, 1, 2, 0)
	body := []LayerOf[float64]{NewConv2DOf[float64]("res.0", geomBody, 4, r)}
	short := []LayerOf[float64]{NewConv2DOf[float64]("res.short", geomShort, 4, r)}
	block := NewResidualOf[float64](body, short, 32)
	net := NewNetworkOf[float64](block, NewDenseOf[float64]("fc", block.OutDim(), 2, r))
	x := randInput(r, 2, 32)
	gradCheck(t, net, x, randLabels(r, 2, 2), 1e-4)
}

func TestResidualDimMismatchPanics(t *testing.T) {
	r := rng.New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResidualOf[float64]([]LayerOf[float64]{NewDenseOf[float64]("d", 4, 3, r)}, nil, 4)
}

func TestLSTMGradCheck(t *testing.T) {
	r := rng.New(11)
	lstm := NewLSTMOf[float64]("rnn", 3, 4, 5, 1, r)
	net := NewNetworkOf[float64](lstm, NewDenseOf[float64]("fc", 4, 2, r))
	x := randInput(r, 3, 5*3)
	gradCheck(t, net, x, randLabels(r, 3, 2), 1e-4)
	inputGradCheck(t, net, x, randLabels(r, 3, 2), 1e-4)
}

func TestLSTMTwoLayerGradCheck(t *testing.T) {
	r := rng.New(12)
	lstm := NewLSTMOf[float64]("rnn", 2, 3, 4, 2, r)
	net := NewNetworkOf[float64](lstm, NewDenseOf[float64]("fc", 3, 2, r))
	x := randInput(r, 2, 4*2)
	gradCheck(t, net, x, randLabels(r, 2, 2), 1e-4)
}

func TestLSTMParamNames(t *testing.T) {
	r := rng.New(13)
	lstm := NewLSTMOf[float64]("rnn", 2, 3, 4, 2, r)
	want := []string{
		"rnn.weight_ih_l0", "rnn.weight_hh_l0", "rnn.bias_ih_l0", "rnn.bias_hh_l0",
		"rnn.weight_ih_l1", "rnn.weight_hh_l1", "rnn.bias_ih_l1", "rnn.bias_hh_l1",
	}
	ps := lstm.Params()
	if len(ps) != len(want) {
		t.Fatalf("LSTM has %d params, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Fatalf("param %d name = %q, want %q", i, p.Name, want[i])
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(2, 4)
	loss, d := softmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows must sum to zero.
	for b := 0; b < 2; b++ {
		s := 0.0
		for c := 0; c < 4; c++ {
			s += d.Data()[b*4+c]
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("gradient row %d sums to %v", b, s)
		}
	}
	// For uniform logits, gradient = (0.25 - onehot)/B.
	if math.Abs(d.Data()[0]-(0.25-1)/2) > 1e-12 {
		t.Fatalf("gradient wrong: %v", d.Data()[0])
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.ViewOf(nil, []float64{1000, 0, -1000}, 1, 3)
	loss, d := softmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	for _, v := range d.Data() {
		if math.IsNaN(v) {
			t.Fatal("gradient has NaN")
		}
	}
	if loss > 1e-9 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestSGDStep(t *testing.T) {
	p := newParamOf[float64]("w", 2)
	p.Value.Data()[0] = 1
	p.Value.Data()[1] = 2
	p.Grad.Data()[0] = 0.5
	p.Grad.Data()[1] = -0.5
	opt := NewSGDOf[float64](0.1, 0, 0)
	opt.Step([]*Param{p})
	if math.Abs(p.Value.Data()[0]-0.95) > 1e-12 || math.Abs(p.Value.Data()[1]-2.05) > 1e-12 {
		t.Fatalf("SGD step wrong: %v", p.Value.Data())
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := newParamOf[float64]("w", 1)
	p.Value.Data()[0] = 10
	opt := NewSGDOf[float64](0.1, 0, 0.01)
	opt.Step([]*Param{p}) // grad 0, wd pulls toward zero: w -= 0.1*0.01*10
	if math.Abs(p.Value.Data()[0]-9.99) > 1e-12 {
		t.Fatalf("weight decay wrong: %v", p.Value.Data()[0])
	}
}

func TestSGDMomentum(t *testing.T) {
	p := newParamOf[float64]("w", 1)
	p.Grad.Data()[0] = 1
	opt := NewSGDOf[float64](1, 0.9, 0)
	opt.Step([]*Param{p}) // v=1, w=-1
	opt.Step([]*Param{p}) // v=1.9, w=-2.9
	if math.Abs(p.Value.Data()[0]+2.9) > 1e-12 {
		t.Fatalf("momentum wrong: %v", p.Value.Data()[0])
	}
}

func TestFlatParamsRoundTrip(t *testing.T) {
	r := rng.New(14)
	net := NewNetworkOf[float64](NewDenseOf[float64]("fc1", 3, 4, r), NewDenseOf[float64]("fc2", 4, 2, r))
	flat := net.FlatParams()
	if len(flat) != net.NumParams() {
		t.Fatalf("flat length %d != NumParams %d", len(flat), net.NumParams())
	}
	// Perturb, restore, verify.
	net.Params()[0].Value.Fill(0)
	net.SetFlatParams(flat)
	got := net.FlatParams()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("roundtrip mismatch at %d", i)
		}
	}
}

func TestParamRanges(t *testing.T) {
	r := rng.New(15)
	net := NewNetworkOf[float64](NewDenseOf[float64]("fc1", 3, 4, r), NewDenseOf[float64]("fc2", 4, 2, r))
	ranges := net.ParamRanges()
	if len(ranges) != 4 {
		t.Fatalf("got %d ranges, want 4", len(ranges))
	}
	if ranges[0].Name != "fc1.weight" || ranges[0].Start != 0 || ranges[0].End != 12 {
		t.Fatalf("range 0 wrong: %+v", ranges[0])
	}
	if ranges[3].End != net.NumParams() {
		t.Fatalf("last range must end at NumParams")
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Start != ranges[i-1].End {
			t.Fatalf("ranges not contiguous at %d", i)
		}
	}
}

func TestDuplicateParamNamePanics(t *testing.T) {
	r := rng.New(16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetworkOf[float64](NewDenseOf[float64]("fc", 2, 2, r), NewDenseOf[float64]("fc", 2, 2, r))
}

// TestTrainingReducesLoss checks the full stack learns a separable problem.
func TestTrainingReducesLoss(t *testing.T) {
	r := rng.New(17)
	net := NewNetworkOf[float64](NewDenseOf[float64]("fc1", 2, 16, r), NewReLUOf[float64](16), NewDenseOf[float64]("fc2", 16, 2, r))
	opt := NewSGDOf[float64](0.1, 0, 0)
	// Two Gaussian blobs.
	const n = 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		off := float64(2*c - 1)
		x.Data()[2*i] = r.Normal(off*2, 0.5)
		x.Data()[2*i+1] = r.Normal(off*2, 0.5)
	}
	first := lossOf(net, x, labels)
	for it := 0; it < 60; it++ {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		_, d := softmaxCrossEntropy(logits, labels)
		net.Backward(d)
		opt.Step(net.Params())
	}
	last := lossOf(net, x, labels)
	if last > first/4 {
		t.Fatalf("training did not reduce loss: %v -> %v", first, last)
	}
	logits, correct := net.Forward(x, false), 0
	for i, y := range labels {
		if logits.ArgMaxRow(i) == y {
			correct++
		}
	}
	if acc := float64(correct) / n; acc < 0.95 {
		t.Fatalf("final accuracy = %v, want > 0.95", acc)
	}
}

// TestTrainingDeterminism: two identical training runs produce identical
// parameters, exercising the deterministic parallel reductions in Conv2D.
func TestTrainingDeterminism(t *testing.T) {
	run := func() []float64 {
		r := rng.New(18)
		geom := tensor.NewConvGeom(1, 8, 8, 3, 3, 1, 1)
		conv := NewConv2DOf[float64]("conv", geom, 4, r)
		net := NewNetworkOf[float64](conv, NewReLUOf[float64](conv.OutDim()), NewDenseOf[float64]("fc", conv.OutDim(), 3, r))
		opt := NewSGDOf[float64](0.05, 0, 0)
		x := randInput(r, 16, 64)
		labels := randLabels(r, 16, 3)
		for it := 0; it < 5; it++ {
			net.ZeroGrad()
			logits := net.Forward(x, true)
			_, d := softmaxCrossEntropy(logits, labels)
			net.Backward(d)
			opt.Step(net.Params())
		}
		return net.FlatParams()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic at param %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkDenseForward(b *testing.B) {
	r := rng.New(1)
	d := NewDenseOf[float64]("fc", 256, 128, r)
	x := randInput(r, 32, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, false)
	}
}

func BenchmarkConvForwardBackward(b *testing.B) {
	r := rng.New(1)
	geom := tensor.NewConvGeom(8, 16, 16, 3, 3, 1, 1)
	c := NewConv2DOf[float64]("conv", geom, 16, r)
	x := randInput(r, 16, c.InDim())
	dout := randInput(r, 16, c.OutDim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Forward(x, true)
		c.Backward(dout)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	r := rng.New(1)
	l := NewLSTMOf[float64]("rnn", 16, 32, 10, 1, r)
	net := NewNetworkOf[float64](l, NewDenseOf[float64]("fc", 32, 4, r))
	x := randInput(r, 16, 160)
	labels := randLabels(r, 16, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		_, d := softmaxCrossEntropy(logits, labels)
		net.Backward(d)
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
