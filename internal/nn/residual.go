package nn

import (
	"fmt"

	"fedca/internal/tensor"
)

// ResidualOf computes y = body(x) + shortcut(x), the building block of
// WideResNet-style networks. An empty shortcut means identity (which
// requires body to preserve the feature count).
type ResidualOf[F tensor.Float] struct {
	Body     []LayerOf[F]
	Shortcut []LayerOf[F] // nil/empty = identity
	outDim   int

	arena *tensor.Arena

	// call is the per-batch state the sum's runner reads; see Conv2DOf.
	call   struct{ bd, sd, yd []F }
	sumRun residualSumRunnerOf[F]
}

// NewResidualOf wires a residual block and validates dimensions.
func NewResidualOf[F tensor.Float](body, shortcut []LayerOf[F], inDim int) *ResidualOf[F] {
	if len(body) == 0 {
		panic("nn: Residual requires a non-empty body")
	}
	bodyOut := body[len(body)-1].OutDim()
	shortOut := inDim
	if len(shortcut) > 0 {
		shortOut = shortcut[len(shortcut)-1].OutDim()
	}
	if bodyOut != shortOut {
		panic(fmt.Sprintf("nn: Residual body out %d != shortcut out %d", bodyOut, shortOut))
	}
	r := &ResidualOf[F]{Body: body, Shortcut: shortcut, outDim: bodyOut}
	r.sumRun.r = r
	return r
}

// OutDim returns the block's output feature count.
func (r *ResidualOf[F]) OutDim() int { return r.outDim }

// setArena binds the block's own scratch; nested layers are reached by
// Network.SetArena through VisitLayers.
func (r *ResidualOf[F]) setArena(a *tensor.Arena) { r.arena = a }

// residualSumRunnerOf adds the two branches, a chunk of elements per index.
type residualSumRunnerOf[F tensor.Float] struct {
	noScratch
	r *ResidualOf[F]
}

func (rr *residualSumRunnerOf[F]) Do(i, _ int) {
	c := &rr.r.call
	lo, hi := elemRange(i, len(c.yd))
	bd, sd, yd := c.bd[lo:hi], c.sd[lo:hi], c.yd[lo:hi]
	for j := range yd {
		yd[j] = bd[j] + sd[j]
	}
}

// Forward runs both branches and sums them. Each branch is a chain of its own
// (see forwardChain): x stays with the caller, pinned while both read it. On
// a training pass the two branch results go back to the arena once summed
// into a third tensor — no Backward reads them; an inference pass sums into
// the body's result instead (see infer).
func (r *ResidualOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	if !train {
		return r.infer(x, false)
	}
	b := forwardChain(r.arena, r.Body, x, true, false)
	s := forwardChain(r.arena, r.Shortcut, x, true, false)
	y := uninitT[F](r.arena, b.Shape()...)
	r.sum(y, b, s)
	if b != x {
		releaseT(r.arena, b)
	}
	if s != x {
		releaseT(r.arena, s)
	}
	return y
}

// forwardOwned is the inference pass over an input the block's chain owns.
func (r *ResidualOf[F]) forwardOwned(x *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	return r.infer(x, true)
}

// infer is the inference pass; owned says whether the block may consume x.
// The shortcut runs first. A shortcut with layers then has its own result,
// and nothing reads x after the body, so a body whose block owns x owns it
// too and may overwrite it; an identity shortcut is x itself, which the sum
// still reads, so that body never owns it. The sum goes into the body's
// result when the body created it or owned x, and into a fresh tensor only
// when the body handed back an x it may not write.
func (r *ResidualOf[F]) infer(x *tensor.TensorOf[F], owned bool) *tensor.TensorOf[F] {
	s := forwardChain(r.arena, r.Shortcut, x, false, false)
	bodyOwns := owned && s != x
	b := forwardChain(r.arena, r.Body, x, false, bodyOwns)
	y := b
	if b == x && !bodyOwns {
		y = uninitT[F](r.arena, b.Shape()...)
	}
	r.sum(y, b, s)
	if s != x {
		releaseT(r.arena, s)
	}
	return y
}

// sum writes b + s into y, which may be b.
func (r *ResidualOf[F]) sum(y, b, s *tensor.TensorOf[F]) {
	if b.Size() != s.Size() {
		panic(fmt.Sprintf("nn: Residual branches produced %v and %v", b.Shape(), s.Shape()))
	}
	n := y.Size()
	r.call.bd, r.call.sd, r.call.yd = b.Data(), s.Data(), y.Data()
	parallelSamples(elemChunks(n), heavyElems(n), &r.sumRun)
	r.call.bd, r.call.sd, r.call.yd = nil, nil, nil
}

// backwardReadsInput: the block's Backward reads x where a branch's first
// layer does; an identity shortcut reads nothing.
func (r *ResidualOf[F]) backwardReadsInput() bool {
	return readsInput(r.Body[0]) || len(r.Shortcut) > 0 && readsInput(r.Shortcut[0])
}

// Backward propagates dout through both branches and sums input gradients.
// Each branch is a chain of its own (see backwardChain): dout stays with the
// caller, and the two branch gradients go back to the arena once summed.
func (r *ResidualOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	db := backwardChain(r.arena, r.Body, dout)
	ds := backwardChain(r.arena, r.Shortcut, dout)
	dx := uninitT[F](r.arena, db.Shape()...)
	dx.AddInto(db, ds)
	if db != dout {
		releaseT(r.arena, db)
	}
	if ds != dout {
		releaseT(r.arena, ds)
	}
	return dx
}

// Params returns the parameters of both branches.
func (r *ResidualOf[F]) Params() []*ParamOf[F] {
	var ps []*ParamOf[F]
	for _, l := range r.Body {
		ps = append(ps, l.Params()...)
	}
	for _, l := range r.Shortcut {
		ps = append(ps, l.Params()...)
	}
	return ps
}
