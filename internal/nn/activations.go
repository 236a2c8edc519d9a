package nn

import (
	"fedca/internal/tensor"
)

// ReLUOf applies max(0, x) elementwise.
type ReLUOf[F tensor.Float] struct {
	dim  int
	mask []bool

	arena *tensor.Arena
	gen   uint64
}

// ReLU is the float64 ReLU.
type ReLU = ReLUOf[float64]

// NewReLUOf creates a ReLU whose OutDim mirrors the given feature count.
func NewReLUOf[F tensor.Float](dim int) *ReLUOf[F] { return &ReLUOf[F]{dim: dim} }

// NewReLU creates a float64 ReLU.
func NewReLU(dim int) *ReLU { return NewReLUOf[float64](dim) }

// OutDim returns the feature count.
func (r *ReLUOf[F]) OutDim() int { return r.dim }

func (r *ReLUOf[F]) setArena(a *tensor.Arena) { r.arena = a }

// Forward zeroes negatives. Both loops are branch-free — a clamp and a stored
// comparison — because on activations of random sign a branch per element is
// mispredicted half the time and costs more than the arithmetic of the layers
// around it. A NaN stays NaN and counts as active, as it always has.
func (r *ReLUOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	y := cloneT(r.arena, x)
	yd := y.Data()
	if !train {
		for i, v := range yd {
			yd[i] = max(v, 0)
		}
		return y
	}
	r.mask = allocBools(r.arena, len(yd))
	r.gen = stampGen(r.arena)
	mask := r.mask[:len(yd)]
	for i, v := range yd {
		yd[i] = max(v, 0)
		mask[i] = !(v <= 0)
	}
	return y
}

// Backward gates gradients by the forward mask.
func (r *ReLUOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	if r.mask == nil {
		panic("nn: ReLU.Backward without prior Forward(train=true)")
	}
	checkGen(r.arena, r.gen, "nn.ReLU")
	dx := cloneT(r.arena, dout)
	dd := dx.Data()
	for i := range dd {
		if !r.mask[i] {
			dd[i] = 0
		}
	}
	r.mask = nil
	return dx
}

// Params returns nil.
func (r *ReLUOf[F]) Params() []*ParamOf[F] { return nil }
