package model

import (
	"strings"
	"testing"

	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

var testImg = ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 10}
var testSeq = SeqConfig{SeqLen: 8, FeatDim: 8, Hidden: 16, Layers: 2, Classes: 10}
var testWRN = WRNConfig{Image: ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 10}, BlocksPerGroup: 2, Width: 8}

func forwardShape(t *testing.T, m *Model, batch int) {
	t.Helper()
	x := tensor.New(batch, m.InDim)
	r := rng.New(100)
	for i := range x.Data() {
		x.Data()[i] = r.Normal(0, 1)
	}
	y := m.Forward(x, false)
	if y.Dim(0) != batch || y.Dim(1) != m.Classes {
		t.Fatalf("%s forward shape = %v, want [%d %d]", m.Name, y.Shape(), batch, m.Classes)
	}
}

func TestCNNShapeAndNames(t *testing.T) {
	m := NewCNNOf[float64](testImg, rng.New(1))
	forwardShape(t, m, 4)
	names := paramNames(m.Network)
	for _, want := range []string{"conv1.weight", "conv2.weight", "fc1.weight", "fc2.weight", "fc3.bias"} {
		if !names[want] {
			t.Fatalf("CNN missing parameter %q; have %v", want, keys(names))
		}
	}
}

func TestLSTMShapeAndNames(t *testing.T) {
	m := NewLSTMOf[float64](testSeq, rng.New(2))
	forwardShape(t, m, 4)
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
	forwardShape(t, m, 4)
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
	m := NewWRNOf[float64](WRNConfig{Image: ImageConfig{Channels: 1, Height: 8, Width: 8, Classes: 4}, BlocksPerGroup: 1, Width: 4}, rng.New(5))
	r := rng.New(6)
	x := tensor.New(8, m.InDim)
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

// TestRegistry pins the workload name each constructor stamps, at both
// dtypes: expcfg's name → model switch dispatches on these names, and run
// logs and checksums key on them.
func TestRegistry(t *testing.T) {
	r := rng.New(7)
	for _, c := range []struct {
		name  string
		got64 string
		got32 string
	}{
		{"cnn", NewCNNOf[float64](testImg, r).Name, NewCNNOf[float32](testImg, r).Name},
		{"lstm", NewLSTMOf[float64](testSeq, r).Name, NewLSTMOf[float32](testSeq, r).Name},
		{"wrn", NewWRNOf[float64](testWRN, r).Name, NewWRNOf[float32](testWRN, r).Name},
	} {
		if c.got64 != c.name || c.got32 != c.name {
			t.Fatalf("model names %q (float64), %q (float32), want %q", c.got64, c.got32, c.name)
		}
	}
}

func TestParamNameUniverse(t *testing.T) {
	// Every parameter name must be well formed (no empty segments).
	for _, m := range []*Model{NewCNNOf[float64](testImg, rng.New(1)), NewLSTMOf[float64](testSeq, rng.New(1)), NewWRNOf[float64](testWRN, rng.New(1))} {
		for _, p := range m.Params() {
			if p.Name == "" || strings.Contains(p.Name, "..") || strings.HasPrefix(p.Name, ".") {
				t.Fatalf("%s has malformed param name %q", m.Name, p.Name)
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
