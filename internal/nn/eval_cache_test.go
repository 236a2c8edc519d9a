package nn

import (
	"testing"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// TestEvalForwardInvalidatesBackwardCache: a training forward followed by an
// inference forward leaves no cache behind, so the Backward that follows
// panics — exactly like Backward with no forward at all — instead of
// differentiating against a batch that is no longer the layer's last. On the
// heap nothing else would catch it; with an arena the generation check would
// only if a Reset happened to fall in between, and here none does.
func TestEvalForwardInvalidatesBackwardCache(t *testing.T) {
	r := rng.New(4)
	geom := tensor.NewConvGeom(2, 4, 4, 3, 3, 1, 1)
	layers := []struct {
		name  string
		layer LayerOf[float64]
		in    int
	}{
		{"Dense", NewDenseOf[float64]("fc", 6, 4, r), 6},
		{"Conv2D", NewConv2DOf[float64]("conv", geom, 3, r), 32},
		{"Conv2D/stride2", NewConv2DOf[float64]("conv2", tensor.NewConvGeom(2, 4, 4, 3, 3, 2, 1), 3, r), 32},
		{"ReLU", NewReLUOf[float64](6), 6},
		{"BatchNorm2D", NewBatchNorm2DOf[float64]("bn", 2, 4, 4), 32},
		{"MaxPool2D", NewMaxPool2DOf[float64](2, 4, 4, 2, 2), 32},
		{"MaxPool2D/8x8", NewMaxPool2DOf[float64](2, 8, 8, 2, 2), 128},
		{"LSTM", NewLSTMOf[float64]("rnn", 3, 4, 2, 2, r), 6},
		{"Residual", NewResidualOf[float64]([]LayerOf[float64]{NewBatchNorm2DOf[float64]("rbn", 2, 4, 4), NewReLUOf[float64](32)}, nil, 32), 32},
	}
	for _, tc := range layers {
		for _, withArena := range []bool{false, true} {
			name := tc.name + "/heap"
			if withArena {
				name = tc.name + "/arena"
			}
			t.Run(name, func(t *testing.T) {
				var arena *tensor.Arena
				if withArena {
					arena = tensor.NewArena()
				}
				NewNetworkOf[float64](tc.layer).SetArena(arena)
				out := tc.layer.Forward(randInput(r, 4, tc.in), true)
				tc.layer.Forward(randInput(r, 2, tc.in), false) // the shrinking evaluation batch
				defer func() {
					if recover() == nil {
						t.Fatal("Backward after an inference forward did not panic")
					}
				}()
				tc.layer.Backward(tensor.New(out.Shape()...))
			})
		}
	}
}
