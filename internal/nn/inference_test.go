package nn

import (
	"fmt"
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// InferenceMatchesTraining is inferenceMatchesTraining for the float64 models
// of the external test package, which builds the benchmark's networks from
// internal/model.
var InferenceMatchesTraining = inferenceMatchesTraining[float64]

// inferenceMatchesTraining holds an inference pass of the network build makes
// to a training forward over the same batch, bit for bit. Batch norm
// normalizes with the batch's own statistics in both modes and no other layer
// depends on the mode, so the training
// forward, which keeps every activation its Backward reads and writes no
// layer's output over its input, is the out-of-place reference for the
// inference pass, which writes each layer it can over the activation it owns
// (ownedForwarder). It runs on the heap and on an arena, on one token and on
// two (the convolutions and the elementwise layers fan out), under the poison
// hook, whose filled and checked releases catch an activation read after the
// chain gave it back or handed back twice; the inference pass runs twice, on
// a cold and a warm arena, and must leave its input as it found it.
func inferenceMatchesTraining[F tensor.Float](t *testing.T, build func() *NetworkOf[F], batch, dim int) {
	t.Helper()
	poisonArenas(t)
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	r := rng.New(21)
	x := tensor.NewOf[F](batch, dim)
	for i := range x.Data() {
		x.Data()[i] = F(r.Normal(0, 1))
	}
	before := append([]F(nil), x.Data()...)
	for _, tokens := range []int{1, 2} {
		budget.SetCap(tokens)
		for _, withArena := range []bool{false, true} {
			what := fmt.Sprintf("%d tokens, arena %v", tokens, withArena)
			net := build()
			var arena *tensor.Arena
			if withArena {
				arena = tensor.NewArena()
				net.SetArena(arena)
			}
			reset := func() {
				if arena != nil {
					arena.Reset()
				}
			}
			reset()
			want := append([]F(nil), net.Forward(x, true).Data()...)
			for pass := 0; pass < 2; pass++ {
				reset()
				if i := sameBits(want, net.Forward(x, false).Data()); i >= 0 {
					t.Fatalf("%s, pass %d: inference logits differ from the training forward's at %d", what, pass, i)
				}
				if i := sameBits(before, x.Data()); i >= 0 {
					t.Fatalf("%s, pass %d: the inference pass wrote to its input (at %d)", what, pass, i)
				}
			}
		}
	}
}

// TestInferenceMatchesTrainingForward: an inference pass computes what a
// training forward does (inferenceMatchesTraining), for every network of
// everyLayerNets, at both dtypes. TestInferenceMatchesTrainingForwardModels does the
// same for the benchmark's three models.
func TestInferenceMatchesTrainingForward(t *testing.T) {
	t.Run("f64", testInferenceMatchesTraining[float64])
	t.Run("f32", testInferenceMatchesTraining[float32])
}

func testInferenceMatchesTraining[F tensor.Float](t *testing.T) {
	for name, build := range everyLayerNets[F]() {
		_, dim := build()
		t.Run(name, func(t *testing.T) {
			inferenceMatchesTraining(t, func() *NetworkOf[F] { net, _ := build(); return net }, 7, dim)
		})
	}
}
