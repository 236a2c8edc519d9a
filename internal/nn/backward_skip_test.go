package nn

import (
	"testing"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// firstLayerNets builds one small network per kind of first layer that can
// skip its input gradient, twice from the same seed so the twins start equal.
func firstLayerNets[F tensor.Float]() map[string]func() (*NetworkOf[F], int) {
	return map[string]func() (*NetworkOf[F], int){
		"conv": func() (*NetworkOf[F], int) {
			r := rng.New(3)
			g1 := tensor.NewConvGeom(2, 6, 6, 3, 3, 1, 1)
			c1 := NewConv2DOf[F]("conv1", g1, 3, r)
			g2 := tensor.NewConvGeom(3, 6, 6, 3, 3, 2, 1)
			c2 := NewConv2DOf[F]("conv2", g2, 4, r)
			return NewNetworkOf[F](c1, NewReLUOf[F](c1.OutDim()), c2, NewReLUOf[F](c2.OutDim()),
				NewDenseOf[F]("fc", c2.OutDim(), 5, r)), c1.InDim()
		},
		"dense": func() (*NetworkOf[F], int) {
			r := rng.New(4)
			return NewNetworkOf[F](NewDenseOf[F]("fc1", 7, 9, r), NewReLUOf[F](9), NewDenseOf[F]("fc2", 9, 5, r)), 7
		},
		"lstm": func() (*NetworkOf[F], int) {
			r := rng.New(5)
			return NewNetworkOf[F](NewLSTMOf[F]("rnn", 3, 6, 4, 2, r), NewDenseOf[F]("fc", 6, 5, r)), 4 * 3
		},
		"batchnorm-first": func() (*NetworkOf[F], int) { // a first layer that cannot skip anything
			r := rng.New(6)
			return NewNetworkOf[F](NewBatchNorm2DOf[F]("bn", 2, 3, 3), NewDenseOf[F]("fc", 18, 5, r)), 18
		},
	}
}

func testBackwardSkipsOnlyTheInputGradient[F tensor.Float](t *testing.T) {
	for name, build := range firstLayerNets[F]() {
		skip, _ := build()
		full, inDim := build()
		r := rng.New(8)
		const batch = 5
		x := tensor.NewOf[F](batch, inDim)
		for i := range x.Data() {
			x.Data()[i] = F(r.Normal(0, 1))
		}
		labels := randLabels(r, batch, 5)
		for step := 0; step < 2; step++ { // gradients accumulate across calls without ZeroGrad
			for _, net := range []*NetworkOf[F]{skip, full} {
				logits := net.Forward(x, true)
				dlogits := tensor.NewOf[F](batch, 5)
				SoftmaxCrossEntropyInto(logits, labels, dlogits)
				if net == skip {
					if dx := net.Backward(dlogits); (dx == nil) == (name == "batchnorm-first") {
						t.Fatalf("%s: Network.Backward returned dx=%v", name, dx)
					}
				} else if dx := layerwiseBackward(net, dlogits); dx == nil || dx.Dim(1) != inDim {
					t.Fatalf("%s: per-layer chain lost the input gradient: %v", name, dx)
				}
			}
			for i, p := range skip.Params() {
				want := full.Params()[i].Grad.Data()
				for j, g := range p.Grad.Data() {
					if g != want[j] {
						t.Fatalf("%s step %d: %s grad[%d] = %v, per-layer chain %v", name, step, p.Name, j, g, want[j])
					}
				}
			}
		}
	}
}

// TestNetworkBackwardSkipsOnlyTheInputGradient: NetworkOf.Backward leaves out
// the first layer's dL/d(input) and nothing else — every parameter gradient
// equals, bit for bit, the one a per-layer chain that does compute it
// accumulates, for each kind of first layer and at both dtypes.
func TestNetworkBackwardSkipsOnlyTheInputGradient(t *testing.T) {
	t.Run("f64", testBackwardSkipsOnlyTheInputGradient[float64])
	t.Run("f32", testBackwardSkipsOnlyTheInputGradient[float32])
}
