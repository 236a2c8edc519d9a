package nn

import (
	"math"

	"fedca/internal/tensor"
)

// BatchNorm2DOf normalizes each channel over the batch and spatial dimensions
// and applies a learned affine transform (γ, β).
//
// Design note: normalization always uses the statistics of the current batch,
// in training and evaluation alike. In federated learning the global model's
// running statistics are never trained on the server, so eval-time running
// stats would be meaningless there; batch statistics sidestep the problem and
// keep the synchronized state exactly equal to the trainable parameters,
// which is also what FedCA's update-centric bookkeeping assumes.
//
// Precision note: channel statistics (mean, variance, the backward channel
// sums) always accumulate in float64, even for a float32 network — these are
// long reductions over batch × spatial where float32 accumulation would lose
// the most. Per-element normalization happens in the working dtype.
//
// Every product that feeds a sum or a difference is an explicit conversion,
// which no compiler may fuse with it: the layer computes the same bits on a
// machine with fused multiply-add as on one without.
//
// An inference pass over an activation its chain owns normalizes it in place
// (forwardOwned), with the same bits as a training pass writes to its own
// output.
type BatchNorm2DOf[F tensor.Float] struct {
	C, H, W int
	Eps     float64
	Gamma   *ParamOf[F] // "<name>.weight"
	Beta    *ParamOf[F] // "<name>.bias"

	// caches for backward
	xhat   []F
	invStd []float64
	batch  int

	arena *tensor.Arena
	gen   uint64

	// call is the per-batch state the forward runner reads; see Conv2DOf.
	call struct {
		xd, yd []F
		batch  int
		train  bool
	}
	fwdRun bnFwdRunnerOf[F]
}

// NewBatchNorm2DOf creates a batch-norm layer for [B, C·H·W] inputs.
func NewBatchNorm2DOf[F tensor.Float](name string, c, h, w int) *BatchNorm2DOf[F] {
	b := &BatchNorm2DOf[F]{
		C: c, H: h, W: w, Eps: 1e-5,
		Gamma: newParamOf[F](name+".weight", c),
		Beta:  newParamOf[F](name+".bias", c),
	}
	b.Gamma.Value.Fill(1)
	b.fwdRun.b = b
	return b
}

func (b *BatchNorm2DOf[F]) setArena(a *tensor.Arena) { b.arena = a }

// OutDim returns the per-sample feature count (unchanged by normalization).
func (b *BatchNorm2DOf[F]) OutDim() int { return b.C * b.H * b.W }

// bnFwdRunnerOf is the forward pass's sampleRunner; a work index is a channel.
type bnFwdRunnerOf[F tensor.Float] struct {
	noScratch
	b *BatchNorm2DOf[F]
}

// Do normalizes channel c: its statistics over batch × spatial, summed in
// sample order, then the affine output (and x̂, on a training pass). Channels
// share nothing, so any number of workers gives the same bits.
func (r *bnFwdRunnerOf[F]) Do(c, _ int) {
	b := r.b
	batch, xd, yd := b.call.batch, b.call.xd, b.call.yd
	spatial := b.H * b.W
	inDim := b.C * spatial
	n := float64(batch * spatial)
	sum, sum2 := 0.0, 0.0
	for i := 0; i < batch; i++ {
		for _, v := range xd[i*inDim+c*spatial : i*inDim+(c+1)*spatial] {
			sum += float64(v)
			sum2 += float64(float64(v) * float64(v))
		}
	}
	mean := sum / n
	variance := sum2/n - float64(mean*mean)
	if variance < 0 {
		variance = 0 // numeric guard
	}
	invStd := 1 / math.Sqrt(variance+b.Eps)
	gamma, beta := float64(b.Gamma.Value.Data()[c]), float64(b.Beta.Value.Data()[c])
	if !b.call.train {
		for i := 0; i < batch; i++ {
			base := i*inDim + c*spatial
			yrow := yd[base : base+spatial]
			for j, v := range xd[base : base+spatial] {
				xh := (float64(v) - mean) * invStd
				yrow[j] = F(float64(gamma*xh) + beta)
			}
		}
		return
	}
	b.invStd[c] = invStd
	for i := 0; i < batch; i++ {
		base := i*inDim + c*spatial
		yrow, hrow := yd[base:base+spatial], b.xhat[base:base+spatial]
		for j, v := range xd[base : base+spatial] {
			xh := (float64(v) - mean) * invStd
			hrow[j] = F(xh)
			yrow[j] = F(float64(gamma*xh) + beta)
		}
	}
}

// Forward normalizes per channel and applies γ, β.
func (b *BatchNorm2DOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	return b.forward(x, uninitT[F](b.arena, x.Dim(0), b.OutDim()), train)
}

// forwardOwned is the inference pass over an input the chain owns: it
// normalizes x in place. A channel's statistics are summed over all of its
// elements before any of them is rewritten, and channels share no element.
func (b *BatchNorm2DOf[F]) forwardOwned(x *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	return b.forward(x, x, false)
}

// forward normalizes x into y, which is either x itself (forwardOwned) or
// shares no storage with it.
func (b *BatchNorm2DOf[F]) forward(x, y *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	batch := x.Dim(0)
	inDim := b.OutDim()
	b.xhat = nil // an inference pass leaves nothing for Backward to read
	if train {
		b.xhat = uninitF[F](b.arena, batch*inDim)
		if b.arena != nil {
			b.invStd = b.arena.Float64(b.C)
		} else {
			b.invStd = make([]float64, b.C)
		}
		b.batch = batch
		b.gen = stampGen(b.arena)
	}
	b.call.xd, b.call.yd, b.call.batch, b.call.train = x.Data(), y.Data(), batch, train
	parallelSamples(b.C, heavyElems(batch*inDim), &b.fwdRun)
	b.call.xd, b.call.yd = nil, nil
	return y
}

// Backward computes the standard batch-norm gradient.
func (b *BatchNorm2DOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	if b.xhat == nil {
		panic("nn: BatchNorm2D.Backward without prior Forward(train=true)")
	}
	checkGen(b.arena, b.gen, "nn.BatchNorm2D")
	batch := b.batch
	spatial := b.H * b.W
	inDim := b.C * spatial
	n := float64(batch * spatial)
	dx := uninitT[F](b.arena, batch, inDim)
	dd, dxd := dout.Data(), dx.Data()
	gg, bg := b.Gamma.Grad.Data(), b.Beta.Grad.Data()
	g := b.Gamma.Value.Data()
	for c := 0; c < b.C; c++ {
		// Accumulate Σdout and Σ(dout·x̂) for channel c.
		var sumD, sumDX float64
		for i := 0; i < batch; i++ {
			base := i*inDim + c*spatial
			hrow := b.xhat[base : base+spatial]
			for j, v := range dd[base : base+spatial] {
				d := float64(v)
				sumD += d
				sumDX += float64(d * float64(hrow[j]))
			}
		}
		gg[c] += F(sumDX)
		bg[c] += F(sumD)
		k := float64(g[c]) * b.invStd[c] / n
		for i := 0; i < batch; i++ {
			base := i*inDim + c*spatial
			hrow, drow := b.xhat[base:base+spatial], dxd[base:base+spatial]
			for j, v := range dd[base : base+spatial] {
				drow[j] = F(k * (float64(n*float64(v)) - sumD - float64(float64(hrow[j])*sumDX)))
			}
		}
	}
	b.xhat = nil
	return dx
}

// Params returns γ and β.
func (b *BatchNorm2DOf[F]) Params() []*ParamOf[F] { return []*ParamOf[F]{b.Gamma, b.Beta} }

// backwardReadsInput: Backward reads x̂ and the channels' 1/σ, its own copies.
func (b *BatchNorm2DOf[F]) backwardReadsInput() bool { return false }
