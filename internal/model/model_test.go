package model

import (
	"fmt"
	"strings"
	"testing"

	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

var testImg = ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 10}
var testSeq = SeqConfig{SeqLen: 8, FeatDim: 8, Hidden: 16, Layers: 2, Classes: 10}
var testWRN = WRNConfig{Image: ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 10}, BlocksPerGroup: 2, Width: 8}

// forwardShape checks that m maps a batch of inDim-feature samples to
// classes logits each.
func forwardShape(t *testing.T, m *Model, inDim, classes, batch int) {
	t.Helper()
	x := tensor.New(batch, inDim)
	r := rng.New(100)
	for i := range x.Data() {
		x.Data()[i] = r.Normal(0, 1)
	}
	y := m.Forward(x, false)
	if y.Dim(0) != batch || y.Dim(1) != classes {
		t.Fatalf("forward shape = %v, want [%d %d]", y.Shape(), batch, classes)
	}
}

// inDim is an image's flat per-sample input size.
func inDim(c ImageConfig) int { return c.Channels * c.Height * c.Width }

func TestCNNShapeAndNames(t *testing.T) {
	m := NewCNNOf[float64](testImg, rng.New(1))
	forwardShape(t, m, inDim(testImg), testImg.Classes, 4)
	names := paramNames(m.Network)
	for _, want := range []string{"conv1.weight", "conv2.weight", "fc1.weight", "fc2.weight", "fc3.bias"} {
		if !names[want] {
			t.Fatalf("CNN missing parameter %q; have %v", want, keys(names))
		}
	}
}

func TestLSTMShapeAndNames(t *testing.T) {
	m := NewLSTMOf[float64](testSeq, rng.New(2))
	forwardShape(t, m, testSeq.SeqLen*testSeq.FeatDim, testSeq.Classes, 4)
	names := paramNames(m.Network)
	// Names the paper's Fig. 3 references.
	for _, want := range []string{"rnn.weight_hh_l0", "rnn.bias_ih_l1", "fc.weight"} {
		if !names[want] {
			t.Fatalf("LSTM missing parameter %q; have %v", want, keys(names))
		}
	}
}

func TestWRNShapeAndNames(t *testing.T) {
	m := NewWRNOf[float64](testWRN, rng.New(3))
	forwardShape(t, m, inDim(testWRN.Image), testWRN.Image.Classes, 4)
	names := paramNames(m.Network)
	for _, want := range []string{
		"conv1.weight",
		"conv2.0.residual.0.bias", // group 2, block 0, first BN beta
		"conv3.0.residual.2.weight",
		"conv4.1.residual.6.weight",
		"conv3.0.shortcut.weight", // downsampling shortcut
		"fc.weight",
	} {
		if !names[want] {
			t.Fatalf("WRN missing parameter %q; have %v", want, keys(names))
		}
	}
}

func TestWRNDepthScaling(t *testing.T) {
	shallow := NewWRNOf[float64](WRNConfig{Image: testWRN.Image, BlocksPerGroup: 1, Width: 4}, rng.New(4))
	deep := NewWRNOf[float64](WRNConfig{Image: testWRN.Image, BlocksPerGroup: 3, Width: 4}, rng.New(4))
	if deep.NumParams() <= shallow.NumParams() {
		t.Fatalf("deeper WRN must have more params: %d vs %d", deep.NumParams(), shallow.NumParams())
	}
	// Block count per group reflected in layer names.
	names := paramNames(deep.Network)
	if !names["conv2.2.residual.2.weight"] {
		t.Fatal("3-block WRN missing conv2.2 block")
	}
}

func TestWRNTrains(t *testing.T) {
	// One gradient step must not blow up and must change parameters.
	img := ImageConfig{Channels: 1, Height: 8, Width: 8, Classes: 4}
	m := NewWRNOf[float64](WRNConfig{Image: img, BlocksPerGroup: 1, Width: 4}, rng.New(5))
	r := rng.New(6)
	x := tensor.New(8, inDim(img))
	for i := range x.Data() {
		x.Data()[i] = r.Normal(0, 1)
	}
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = r.Intn(4)
	}
	before := m.FlatParams()
	opt := nn.NewSGDOf[float64](0.01, 0, 0)
	for it := 0; it < 3; it++ {
		m.ZeroGrad()
		logits := m.Forward(x, true)
		d := tensor.New(logits.Dim(0), logits.Dim(1))
		nn.SoftmaxCrossEntropyInto(logits, labels, d)
		m.Backward(d)
		opt.Step(m.Params())
	}
	after := m.FlatParams()
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed < len(before)/2 {
		t.Fatalf("only %d/%d params changed after 3 SGD steps", changed, len(before))
	}
}

func TestCNNBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible input")
		}
	}()
	NewCNNOf[float64](ImageConfig{Channels: 1, Height: 10, Width: 10, Classes: 2}, rng.New(8))
}

func TestDeterministicConstruction(t *testing.T) {
	a := NewCNNOf[float64](testImg, rng.New(42))
	b := NewCNNOf[float64](testImg, rng.New(42))
	pa, pb := a.FlatParams(), b.FlatParams()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed must give identical init")
		}
	}
}

// TestRegistry pins that each constructor builds one parameter layout at
// both dtypes: the same names and shapes in the same order, so an f32 run
// of a workload trains the model its f64 run does, and the flat vectors
// the runner aggregates line up.
func TestRegistry(t *testing.T) {
	r := rng.New(7)
	for _, c := range []struct {
		name         string
		got64, got32 string
	}{
		{"cnn", layout(NewCNNOf[float64](testImg, r)), layout(NewCNNOf[float32](testImg, r))},
		{"lstm", layout(NewLSTMOf[float64](testSeq, r)), layout(NewLSTMOf[float32](testSeq, r))},
		{"wrn", layout(NewWRNOf[float64](testWRN, r)), layout(NewWRNOf[float32](testWRN, r))},
	} {
		if c.got64 == "" || c.got64 != c.got32 {
			t.Fatalf("%s: float64 layout %q, float32 layout %q", c.name, c.got64, c.got32)
		}
	}
}

// layout lists m's parameters in order, each as its name and shape.
func layout[F tensor.Float](m *ModelOf[F]) string {
	var b strings.Builder
	for _, p := range m.Params() {
		fmt.Fprintf(&b, "%s%v;", p.Name, p.Value.Shape())
	}
	return b.String()
}

func TestParamNameUniverse(t *testing.T) {
	// Every parameter name must be well formed (no empty segments).
	for i, m := range []*Model{NewCNNOf[float64](testImg, rng.New(1)), NewLSTMOf[float64](testSeq, rng.New(1)), NewWRNOf[float64](testWRN, rng.New(1))} {
		for _, p := range m.Params() {
			if p.Name == "" || strings.Contains(p.Name, "..") || strings.HasPrefix(p.Name, ".") {
				t.Fatalf("model %d has malformed param name %q", i, p.Name)
			}
		}
	}
}

func paramNames(n *nn.Network) map[string]bool {
	out := make(map[string]bool)
	for _, p := range n.Params() {
		out[p.Name] = true
	}
	return out
}

func keys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
