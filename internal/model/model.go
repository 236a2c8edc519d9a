// Package model builds the three workload networks of the FedCA paper — a
// LeNet-5-style CNN, a two-layer LSTM classifier and a WideResNet-style
// residual CNN — on top of package nn, with parameter names matching the
// PyTorch-style names the paper's figures reference (conv2.weight,
// rnn.weight_hh_l0, conv3.0.residual.0.bias, …).
//
// The paper trains LeNet-5/CIFAR-10 (60K params), LSTM/KWS (50K) and
// WRN-28-10/CIFAR-100 (36M). A 36M-parameter model is not trainable inside a
// Go test harness, so sizes here are configurable and default to scaled-down
// variants that keep the architectural shape (depth, residual groups,
// recurrent stack) while remaining fast; see DESIGN.md §2.
//
// Builders are generic over the working dtype. Initialization draws from the
// RNG in float64 on every path, so a float32 model consumes the identical
// random stream and starts from the element-wise rounding of the float64
// model's weights.
package model

import (
	"fmt"

	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// Network is a generic alias of nn.NetworkOf, embedded in ModelOf so the
// field keeps its historical name: m.Network works for any dtype.
type Network[F tensor.Float] = nn.NetworkOf[F]

// ModelOf wraps a workload's network.
type ModelOf[F tensor.Float] struct {
	*Network[F]
}

// Model is the float64 model, the historical API.
type Model = ModelOf[float64]

// ImageConfig describes an image-classification workload geometry.
type ImageConfig struct {
	Channels, Height, Width int
	Classes                 int
}

// SeqConfig describes a sequence-classification (keyword-spotting-like)
// workload geometry.
type SeqConfig struct {
	SeqLen, FeatDim int
	Hidden, Layers  int
	Classes         int
}

// WRNConfig describes the residual network: BlocksPerGroup basic blocks in
// each of three groups, with channel widths Width, 2·Width, 4·Width
// (the WideResNet widening pattern).
type WRNConfig struct {
	Image          ImageConfig
	BlocksPerGroup int
	Width          int
}

// NewCNNOf builds a LeNet-5-style CNN: two 5×5 conv+maxpool stages followed
// by three fully connected layers (fc1/fc2/fc3), as in the paper's CNN
// workload.
func NewCNNOf[F tensor.Float](cfg ImageConfig, r *rng.RNG) *ModelOf[F] {
	if cfg.Height%4 != 0 || cfg.Width%4 != 0 {
		panic(fmt.Sprintf("model: CNN input %dx%d must be divisible by 4 (two 2x2 pools)", cfg.Height, cfg.Width))
	}
	g1 := tensor.NewConvGeom(cfg.Channels, cfg.Height, cfg.Width, 5, 5, 1, 2)
	conv1 := nn.NewConv2DOf[F]("conv1", g1, 6, r)
	pool1 := nn.NewMaxPool2DOf[F](6, g1.OutH, g1.OutW, 2, 2)
	g2 := tensor.NewConvGeom(6, pool1.OutH, pool1.OutW, 5, 5, 1, 2)
	conv2 := nn.NewConv2DOf[F]("conv2", g2, 16, r)
	pool2 := nn.NewMaxPool2DOf[F](16, g2.OutH, g2.OutW, 2, 2)
	flat := pool2.OutDim()
	net := nn.NewNetworkOf[F](
		conv1, nn.NewReLUOf[F](conv1.OutDim()), pool1,
		conv2, nn.NewReLUOf[F](conv2.OutDim()), pool2,
		nn.NewDenseOf[F]("fc1", flat, 120, r), nn.NewReLUOf[F](120),
		nn.NewDenseOf[F]("fc2", 120, 84, r), nn.NewReLUOf[F](84),
		nn.NewDenseOf[F]("fc3", 84, cfg.Classes, r),
	)
	return &ModelOf[F]{Network: net}
}

// NewLSTMOf builds the paper's LSTM workload: a stacked LSTM named "rnn"
// (yielding rnn.weight_ih_l0 … rnn.bias_hh_l1) followed by a classifier head.
func NewLSTMOf[F tensor.Float](cfg SeqConfig, r *rng.RNG) *ModelOf[F] {
	if cfg.Layers <= 0 {
		cfg.Layers = 2
	}
	lstm := nn.NewLSTMOf[F]("rnn", cfg.FeatDim, cfg.Hidden, cfg.SeqLen, cfg.Layers, r)
	net := nn.NewNetworkOf[F](lstm, nn.NewDenseOf[F]("fc", cfg.Hidden, cfg.Classes, r))
	return &ModelOf[F]{Network: net}
}

// NewWRNOf builds a WideResNet-style network: an entry 3×3 conv, three groups
// of pre-activation basic blocks at widths w/2w/4w (the latter two groups
// downsampling by 2), then BN→ReLU→global-average-pool→fc. Parameter names
// follow "conv<g>.<i>.residual.<j>" for block-internal layers, matching the
// names in the paper's Fig. 3/5 (e.g. conv3.0.residual.0.bias).
func NewWRNOf[F tensor.Float](cfg WRNConfig, r *rng.RNG) *ModelOf[F] {
	img := cfg.Image
	if cfg.BlocksPerGroup <= 0 {
		cfg.BlocksPerGroup = 2
	}
	if cfg.Width <= 0 {
		cfg.Width = 8
	}
	var layers []nn.LayerOf[F]
	g0 := tensor.NewConvGeom(img.Channels, img.Height, img.Width, 3, 3, 1, 1)
	conv1 := nn.NewConv2DOf[F]("conv1", g0, cfg.Width, r)
	layers = append(layers, conv1)
	ch, h, w := cfg.Width, g0.OutH, g0.OutW
	for group := 0; group < 3; group++ {
		outCh := cfg.Width << group
		stride := 1
		if group > 0 {
			stride = 2
		}
		for blk := 0; blk < cfg.BlocksPerGroup; blk++ {
			s := 1
			if blk == 0 {
				s = stride
			}
			name := fmt.Sprintf("conv%d.%d", group+2, blk)
			block, outH, outW := basicBlock[F](name, ch, h, w, outCh, s, r)
			layers = append(layers, block)
			ch, h, w = outCh, outH, outW
		}
	}
	bnOut := nn.NewBatchNorm2DOf[F]("bn_out", ch, h, w)
	layers = append(layers,
		bnOut,
		nn.NewReLUOf[F](ch*h*w),
		nn.NewGlobalAvgPool2DOf[F](ch, h, w),
		nn.NewDenseOf[F]("fc", ch, img.Classes, r),
	)
	net := nn.NewNetworkOf[F](layers...)
	return &ModelOf[F]{Network: net}
}

// basicBlock builds one pre-activation residual block:
// BN → ReLU → conv3x3(stride s) → BN → ReLU → conv3x3, with a 1×1 strided
// conv shortcut when the shape changes. Parameter names carry the layer
// indices of the PyTorch block the paper's Fig. 3 shows
// (conv4.2.residual.6.weight): norms .residual.0 and .residual.3, conv
// weights .residual.2 and .residual.6; index 5 is that block's dropout, which
// this block leaves out.
func basicBlock[F tensor.Float](name string, inCh, h, w, outCh, stride int, r *rng.RNG) (block *nn.ResidualOf[F], outH, outW int) {
	g1 := tensor.NewConvGeom(inCh, h, w, 3, 3, stride, 1)
	c1 := nn.NewConv2DOf[F](name+".residual.2", g1, outCh, r)
	g2 := tensor.NewConvGeom(outCh, g1.OutH, g1.OutW, 3, 3, 1, 1)
	c2 := nn.NewConv2DOf[F](name+".residual.6", g2, outCh, r)
	body := []nn.LayerOf[F]{
		nn.NewBatchNorm2DOf[F](name+".residual.0", inCh, h, w),
		nn.NewReLUOf[F](inCh * h * w),
		c1,
		nn.NewBatchNorm2DOf[F](name+".residual.3", outCh, g1.OutH, g1.OutW),
		nn.NewReLUOf[F](c1.OutDim()),
		c2,
	}
	var shortcut []nn.LayerOf[F]
	if inCh != outCh || stride != 1 {
		gs := tensor.NewConvGeom(inCh, h, w, 1, 1, stride, 0)
		shortcut = []nn.LayerOf[F]{nn.NewConv2DOf[F](name+".shortcut", gs, outCh, r)}
	}
	return nn.NewResidualOf[F](body, shortcut, inCh*h*w), g2.OutH, g2.OutW
}
