package nn

import (
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// DropoutOf zeroes each activation with probability P during training and
// scales the survivors by 1/(1−P) (inverted dropout), so evaluation needs no
// rescaling. WideResNet places dropout between the two convolutions of each
// residual block.
//
// Determinism: masks are drawn from the layer's own RNG. In the FL simulator
// a worker network is shared across clients, so the client round reseeds noise
// layers per (client, round) via Network.ReseedNoise — masks then depend only
// on the client and round, not on goroutine scheduling.
type DropoutOf[F tensor.Float] struct {
	P    float64
	dim  int
	r    *rng.RNG
	mask []bool

	arena *tensor.Arena
	gen   uint64
}

// NewDropoutOf creates a dropout layer over dim features. It panics unless
// 0 ≤ p < 1.
func NewDropoutOf[F tensor.Float](p float64, dim int, r *rng.RNG) *DropoutOf[F] {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0, 1)")
	}
	return &DropoutOf[F]{P: p, dim: dim, r: r}
}

// OutDim returns the feature count (unchanged).
func (d *DropoutOf[F]) OutDim() int { return d.dim }

// ReseedNoise re-derives the mask stream from the given seed.
func (d *DropoutOf[F]) ReseedNoise(seed uint64) { d.r = rng.New(seed) }

func (d *DropoutOf[F]) setArena(a *tensor.Arena) { d.arena = a }

// Forward applies the mask during training; evaluation passes through. Output
// and mask are each written once, straight from the input, in element order —
// the order the mask stream is drawn in.
func (d *DropoutOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	y := uninitT[F](d.arena, x.Shape()...)
	xd, yd := x.Data(), y.Data()
	d.mask = uninitBools(d.arena, len(yd))
	d.gen = stampGen(d.arena)
	scale := 1 / (1 - d.P)
	for i, v := range xd {
		keep := !(d.r.Float64() < d.P)
		d.mask[i] = keep
		if keep {
			yd[i] = F(float64(v) * scale)
		} else {
			yd[i] = 0
		}
	}
	return y
}

// Backward gates and rescales gradients by the forward mask. If Forward ran
// in eval mode (or P = 0) it passes gradients through.
func (d *DropoutOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	if d.mask == nil {
		return dout
	}
	checkGen(d.arena, d.gen, "nn.Dropout")
	dx := uninitT[F](d.arena, dout.Shape()...)
	dxd := dx.Data()
	scale := 1 / (1 - d.P)
	for i, v := range dout.Data() {
		if d.mask[i] {
			dxd[i] = F(float64(v) * scale)
		} else {
			dxd[i] = 0
		}
	}
	d.mask = nil
	return dx
}

// Params returns nil: dropout has no parameters.
func (d *DropoutOf[F]) Params() []*ParamOf[F] { return nil }

// backwardReadsInput: Backward gates by the mask alone. At P = 0 a training
// Forward hands x on as its output, which the next layer may read, so x then
// counts as read: a residual block whose branch starts here keeps its input.
func (d *DropoutOf[F]) backwardReadsInput() bool { return d.P == 0 }
