package nn_test

import (
	"runtime"
	"testing"
	_ "unsafe" // go:linkname

	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/model"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// arenaDemand is internal/tensor's unexported test hook: the bytes an arena
// has handed out since its last Reset other than from released buffers.
//
//go:linkname arenaDemand fedca/internal/tensor.demandBytes
var arenaDemand func(*tensor.Arena) int

// arenaRetained is internal/tensor's unexported test hook: the bytes an
// arena's chunks hold over every slab — all it keeps between generations.
//
//go:linkname arenaRetained fedca/internal/tensor.retainedBytes
var arenaRetained func(*tensor.Arena) int

// arenaHeld is internal/tensor's unexported test hook: the bytes an arena has
// handed out since its last Reset and not had back.
//
//go:linkname arenaHeld fedca/internal/tensor.heldBytes
var arenaHeld func(*tensor.Arena) int

// TestTrainingForwardHoldsWhatBackwardReads: a training forward hands each
// activation back to the arena once the layer consuming it has returned,
// unless that layer's Backward reads it, and a residual block its two branch
// results once summed. So at the end of one forward pass of the WRN, at the
// benchmark's shape and batch, the arena holds no more than what Backward
// reads — each convolution's and the dense layer's input (the ReLU outputs,
// and a block's input where its shortcut is a convolution), each batch
// norm's x̂, each ReLU's mask, the logits — and a little for headers and
// per-channel statistics. Holding every activation until Reset, it held
// twice that: the batch norms' and ReLUs' outputs, the convolution outputs
// they normalize and the branch results as well.
func TestTrainingForwardHoldsWhatBackwardReads(t *testing.T) {
	const batch = 50
	img := model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 20}
	net := model.NewWRNOf[float64](model.WRNConfig{Image: img, BlocksPerGroup: 2, Width: 8}, rng.New(3)).Network
	arena := tensor.NewArena()
	net.SetArena(arena)
	x := tensor.AllocOf[float64](arena, batch, img.Channels*img.Height*img.Width)
	logits := net.Forward(x, true)
	reads := 8 * logits.Size()
	net.VisitLayers(func(l nn.LayerOf[float64]) {
		switch l := l.(type) {
		case *nn.Conv2DOf[float64]:
			reads += 8 * batch * l.InDim()
		case *nn.DenseOf[float64]:
			reads += 8 * batch * l.In
		case *nn.BatchNorm2DOf[float64]:
			reads += 8 * batch * l.OutDim() // x̂
		case *nn.ReLUOf[float64]:
			reads += batch * l.OutDim() // the mask
		case *nn.MaxPool2DOf[float64]:
			reads += 4 * batch * l.OutDim() // the argmax
		}
	})
	held := arenaHeld(arena)
	const slack = 64 << 10
	t.Logf("wrn at batch %d: forward holds %d B, Backward reads %d B", batch, held, reads)
	if held > reads+slack {
		t.Fatalf("a training forward holds %d B, more than the %d B its Backward reads (slack %d B): activations no Backward reads are kept until Reset", held, reads, slack)
	}
}

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
	x := tensor.AllocUninitOf[float64](arena, batch, img.Channels*img.Height*img.Width)
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

// TestConvScratchDoesNotOutliveCall: a convolution draws each worker's patch
// matrix, patch-gradient matrix and padded image from the arena for one call
// and hands them back before returning. So a WRN at the benchmark's shape,
// after a training iteration at its batch (16) and an inference pass at the
// evaluation batch (256) on one arena, holds little beyond its parameters,
// their gradients and the arena's chunks: the bias rows each convolution
// spreads over its positions, batch norm's running statistics, headers.
// Per-layer scratch pools kept every convolution's scratch, at the largest
// worker count it had fanned out to, for the network's life: 26 MB here,
// against 0.2 MB without them.
func TestConvScratchDoesNotOutliveCall(t *testing.T) {
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(2) // the benchmark's box: an inference pass fans out to two workers
	img := model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 20}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := model.NewWRNOf[float64](model.WRNConfig{Image: img, BlocksPerGroup: 2, Width: 8}, rng.New(3)).Network
	arena := tensor.NewArena()
	net.SetArena(arena)
	r := rng.New(4)
	batch := func(n int) *tensor.Tensor {
		x := tensor.AllocUninitOf[float64](arena, n, img.Channels*img.Height*img.Width)
		for i := range x.Data() {
			x.Data()[i] = r.Normal(0, 1)
		}
		return x
	}
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = r.Intn(img.Classes)
	}
	arena.Reset()
	logits := net.Forward(batch(16), true)
	dlogits := tensor.AllocUninitOf[float64](arena, logits.Dim(0), logits.Dim(1))
	nn.SoftmaxCrossEntropyInto(logits, labels, dlogits)
	net.Backward(dlogits)
	arena.Reset()
	net.Forward(batch(256), false)
	arena.Reset()
	runtime.GC()
	runtime.ReadMemStats(&after)
	params, kept := 16*net.NumParams(), arenaRetained(arena)
	extra := int(after.HeapAlloc) - int(before.HeapAlloc) - params - kept
	runtime.KeepAlive(net)
	t.Logf("live heap %d B: parameters and gradients %d B, arena %d B, the rest %d B", int(after.HeapAlloc)-int(before.HeapAlloc), params, kept, extra)
	const bound = 1 << 20
	if extra > bound {
		t.Fatalf("the network holds %d B beyond its parameters, their gradients and its arena's chunks (bound %d B): scratch outlives the call that drew it", extra, bound)
	}
}

// TestInferenceMatchesTrainingForwardModels: an inference pass of each of the
// benchmark's three models, at its workload's shape and a batch of 64,
// computes what a training forward does, bit for bit (see
// nn.InferenceMatchesTraining): the WRN's batch norms, equal-shape
// convolutions and residual sums write over the activations they own, the
// CNN's ReLUs rectify in place, and the LSTM, which has no such layer, is the
// control.
func TestInferenceMatchesTrainingForwardModels(t *testing.T) {
	const batch = 64
	cnn, wrn, lstm := expcfg.CNN(), expcfg.WRN(), expcfg.LSTM()
	for _, m := range []struct {
		name  string
		build func() *nn.Network
		dim   int
	}{
		{"cnn", func() *nn.Network { return model.NewCNNOf[float64](cnn.Img, rng.New(3)).Network }, cnn.Img.Channels * cnn.Img.Height * cnn.Img.Width},
		{"wrn", func() *nn.Network { return model.NewWRNOf[float64](wrn.Wrn, rng.New(3)).Network }, wrn.Wrn.Image.Channels * wrn.Wrn.Image.Height * wrn.Wrn.Image.Width},
		{"lstm", func() *nn.Network { return model.NewLSTMOf[float64](lstm.Seq, rng.New(3)).Network }, lstm.Seq.SeqLen * lstm.Seq.FeatDim},
	} {
		t.Run(m.name, func(t *testing.T) { nn.InferenceMatchesTraining(t, m.build, batch, m.dim) })
	}
}
