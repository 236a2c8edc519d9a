package nn_test

import (
	"testing"
	_ "unsafe" // go:linkname

	"fedca/internal/model"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// arenaDemand is internal/tensor's unexported test hook: the bytes an arena
// has handed out since its last Reset other than from released buffers —
// what the next Reset regrows it to.
//
//go:linkname arenaDemand fedca/internal/tensor.demandBytes
var arenaDemand func(*tensor.Arena) int

// TestTrainingArenaDemand: backward hands each gradient back to the arena
// once the layer consuming it has returned, a residual block its two branch
// gradients once summed, and a convolution its per-sample weight and bias
// slots once reduced. So one training iteration of the WRN, at the
// benchmark's shape and batch, draws less from the arena in backward than
// half of what its forward pass keeps for backward. Holding every gradient
// until Reset, backward drew more than the forward pass itself: each
// gradient is an activation-sized tensor, and the slots come on top.
func TestTrainingArenaDemand(t *testing.T) {
	const batch = 50
	img := model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 20}
	net := model.NewWRNOf[float64](model.WRNConfig{Image: img, BlocksPerGroup: 2, Width: 8}, rng.New(3)).Network
	arena := tensor.NewArena()
	net.SetArena(arena)
	r := rng.New(4)
	x := tensor.AllocUninitOf[float64](arena, batch, img.InDim())
	for i := range x.Data() {
		x.Data()[i] = r.Normal(0, 1)
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(img.Classes)
	}
	logits := net.Forward(x, true)
	dlogits := tensor.AllocUninitOf[float64](arena, logits.Dim(0), logits.Dim(1))
	nn.SoftmaxCrossEntropyInto(logits, labels, dlogits)
	forward := arenaDemand(arena)
	net.Backward(dlogits)
	backward := arenaDemand(arena) - forward
	t.Logf("wrn at batch %d: forward %d B, backward %d B more (%.2f×)", batch, forward, backward, float64(backward)/float64(forward))
	if backward > forward/2 {
		t.Fatalf("backward drew %d B from the arena beyond the forward pass's %d B: gradients are held until Reset", backward, forward)
	}
}
