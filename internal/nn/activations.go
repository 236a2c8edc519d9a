package nn

import "fedca/internal/tensor"

// ReLUOf applies max(0, x) elementwise.
type ReLUOf[F tensor.Float] struct {
	dim  int
	mask []bool

	arena *tensor.Arena
	gen   uint64

	// call is the per-batch state the forward runner reads; see Conv2DOf.
	// mask is nil on an inference pass.
	call struct {
		xd, yd []F
		mask   []bool
	}
	fwdRun reluFwdRunnerOf[F]
}

// NewReLUOf creates a ReLU whose OutDim mirrors the given feature count.
func NewReLUOf[F tensor.Float](dim int) *ReLUOf[F] {
	r := &ReLUOf[F]{dim: dim}
	r.fwdRun.r = r
	return r
}

// OutDim returns the feature count.
func (r *ReLUOf[F]) OutDim() int { return r.dim }

func (r *ReLUOf[F]) setArena(a *tensor.Arena) { r.arena = a }

// reluFwdRunnerOf is the forward pass's sampleRunner over element chunks.
type reluFwdRunnerOf[F tensor.Float] struct {
	noScratch
	r *ReLUOf[F]
}

// Do writes one chunk of the output, and of the mask on a training pass,
// straight from the input (tensor.ReLU: a clamp and a stored comparison per
// element, at vector width). A NaN stays NaN and counts as active, as it
// always has.
func (rr *reluFwdRunnerOf[F]) Do(i, _ int) {
	c := &rr.r.call
	lo, hi := elemRange(i, len(c.xd))
	var mask []bool
	if c.mask != nil {
		mask = c.mask[lo:hi]
	}
	tensor.ReLU(c.yd[lo:hi], c.xd[lo:hi], mask)
}

// Forward zeroes negatives.
func (r *ReLUOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	y := uninitT[F](r.arena, x.Shape()...)
	r.rectify(x, y, train)
	return y
}

// forwardOwned is the inference pass over an input the chain owns: it
// rectifies x in place.
func (r *ReLUOf[F]) forwardOwned(x *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	r.rectify(x, x, false)
	return x
}

// rectify writes max(0, x) into y, which may be x (forwardOwned).
func (r *ReLUOf[F]) rectify(x, y *tensor.TensorOf[F], train bool) {
	n := x.Size()
	r.mask = nil // an inference pass leaves nothing for Backward to read
	if train {
		r.mask = uninitBools(r.arena, n)
		r.gen = stampGen(r.arena)
	}
	r.call.xd, r.call.yd, r.call.mask = x.Data(), y.Data(), r.mask
	parallelSamples(elemChunks(n), heavyElems(n), &r.fwdRun)
	r.call.xd, r.call.yd, r.call.mask = nil, nil, nil
}

// Backward gates gradients by the forward mask.
func (r *ReLUOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	if r.mask == nil {
		panic("nn: ReLU.Backward without prior Forward(train=true)")
	}
	checkGen(r.arena, r.gen, "nn.ReLU")
	dx := uninitT[F](r.arena, dout.Shape()...)
	tensor.GateByMask(dx.Data(), dout.Data(), r.mask)
	r.mask = nil
	return dx
}

// Params returns nil.
func (r *ReLUOf[F]) Params() []*ParamOf[F] { return nil }

// backwardReadsInput: Backward gates by the mask alone.
func (r *ReLUOf[F]) backwardReadsInput() bool { return false }
