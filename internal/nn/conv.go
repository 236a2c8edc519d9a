package nn

import (
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// Conv2DOf is a 2-D convolution over [B, C·H·W] inputs with fixed geometry.
// The weight has shape [outC, inC·KH·KW]. Each sample is three products, and
// in all three the vector lanes run along the long dimension while the
// operand that is already laid out right is read in place:
//
//	forward  out[outC×pos]    = W · colᵀ      colᵀ written packed by Im2ColOf
//	dW_i     dW[outC×patch]   = dout · col    col written packed by Im2ColPackedOf
//	dx       dcolᵀ[patch×pos] = Wᵀ · dout     W read by columns, then Col2ImOf
//
// so a patch matrix is written once, in the layout its product consumes, and
// the layer weight is never packed or copied at all. An inference pass over
// an activation its chain owns writes the output over it when the layer
// keeps the feature count (forwardOwned).
type Conv2DOf[F tensor.Float] struct {
	Geom tensor.ConvGeom
	OutC int
	W, B *ParamOf[F]
	x    *tensor.TensorOf[F]
	// biasRows is the bias spread over the positions, [outC, pos]: written by
	// Forward before the fan-out, so that a sample adds its bias as one sum
	// of two slices.
	biasRows *tensor.TensorOf[F]

	arena *tensor.Arena
	gen   uint64
	// ws holds each fan-out worker's scratch for the call in flight, drawn
	// from the arena before the fan-out and handed back after it. Between
	// calls it is empty: the layer carries no scratch from one call to the
	// next, only this slice's backing array of headers.
	ws []convScratchOf[F]

	// call is the per-batch state read by the sample runners. It is written
	// once by the serial layer code before the fan-out and read immutably by
	// the sample workers, which partition their writes by sample index.
	// Threading state through the layer instead of a closure keeps the
	// fan-out allocation-free: a capturing closure would be heap-allocated
	// per call. The slices are cleared after each fan-out so the layer never
	// pins a previous iteration's arena memory.
	call struct {
		xd, yd, dd, dxd, dWs, dBs []F
	}

	// fwdRun/bwdRun are the layer's sampleRunner implementations; embedding
	// them lets Forward/Backward hand parallelSamples a pointer into the
	// layer, which converts to the interface without allocating.
	fwdRun convFwdRunnerOf[F]
	bwdRun convBwdRunnerOf[F]
}

// convScratchOf is one worker's scratch for one layer call, reused across
// the samples it claims. The out/doutS/dWi headers are rebound onto the
// current sample's rows of the batch buffers each iteration, so no
// per-sample tensor headers are ever minted.
type convScratchOf[F tensor.Float] struct {
	colT  *tensor.PackedBOf[F] // forward: [patch, pos] patch matrix, packed, with its padded image
	out   *tensor.TensorOf[F]  // forward: [outC, pos] header rebound onto the sample's output rows
	col   *tensor.PackedBOf[F] // backward: [pos, patch] patch matrix, packed, with its padded image
	dcolT *tensor.TensorOf[F]  // backward: [patch, pos] patch-gradient matrix, when dx is needed
	doutS *tensor.TensorOf[F]  // backward: [outC, pos] header rebound onto the sample's dout rows
	dWi   *tensor.TensorOf[F]  // backward: [outC, patch] header rebound onto the sample's dW slot
}

// scratch returns ws sized to workers entries, all empty.
func (c *Conv2DOf[F]) scratch(workers int) []convScratchOf[F] {
	if cap(c.ws) < workers {
		c.ws = make([]convScratchOf[F], workers)
	}
	c.ws = c.ws[:workers]
	return c.ws
}

// endScratch hands every worker's buffers back to the arena, so the next
// layer's scratch is cut from the same bytes, and forgets the headers.
func (c *Conv2DOf[F]) endScratch() {
	for i := range c.ws {
		s := &c.ws[i]
		for _, pb := range [2]*tensor.PackedBOf[F]{s.colT, s.col} {
			if pb != nil {
				releasePacked(c.arena, pb)
			}
		}
		if s.dcolT != nil {
			releaseT(c.arena, s.dcolT)
		}
	}
	clear(c.ws)
	c.ws = c.ws[:0]
}

// NewConv2DOf creates a convolution layer with parameters "<name>.weight" and
// "<name>.bias" for any float dtype.
func NewConv2DOf[F tensor.Float](name string, geom tensor.ConvGeom, outC int, r *rng.RNG) *Conv2DOf[F] {
	c := &Conv2DOf[F]{
		Geom: geom,
		OutC: outC,
		W:    newParamOf[F](name+".weight", outC, geom.ColCols()),
		B:    newParamOf[F](name+".bias", outC),

		biasRows: tensor.NewOf[F](outC, geom.ColRows()),
	}
	c.fwdRun.c = c
	c.bwdRun.c = c
	c.seed(r)
	return c
}

func (c *Conv2DOf[F]) seed(r *rng.RNG) {
	InitKaiming(c.W, c.Geom.ColCols(), r)
	c.B.Value.Zero()
}

func (c *Conv2DOf[F]) setArena(a *tensor.Arena) { c.arena = a }

// InDim returns the expected per-sample input feature count.
func (c *Conv2DOf[F]) InDim() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

// OutDim returns the per-sample output feature count.
func (c *Conv2DOf[F]) OutDim() int { return c.OutC * c.Geom.OutH * c.Geom.OutW }

// heavy reports whether the batch convolution is worth parallelizing, using
// the same dtype-scaled MAC-count threshold as the GEMM kernels so the sample
// fan-out and the row fan-out agree on what justifies a goroutine.
func (c *Conv2DOf[F]) heavy(batch int) bool {
	return batch*c.Geom.ColRows()*c.Geom.ColCols()*c.OutC > tensor.ParallelThresholdFor[F]()
}

// convFwdRunnerOf is the forward pass's sampleRunner.
type convFwdRunnerOf[F tensor.Float] struct{ c *Conv2DOf[F] }

// begin draws each worker's forward scratch: the patch matrix with its
// zeroed padded image, and a header for the output rows.
func (r *convFwdRunnerOf[F]) begin(workers int) {
	c := r.c
	pos, patch := c.Geom.ColRows(), c.Geom.ColCols()
	for w := range c.scratch(workers) {
		c.ws[w].colT = packedT[F](c.arena, c.Geom, patch, pos)
		c.ws[w].out = tensor.ViewOf(c.arena, c.call.yd[:c.OutDim()], c.OutC, pos)
	}
}

func (r *convFwdRunnerOf[F]) end() { r.c.endScratch() }

// Do computes one sample's convolution into its rows of the batch output.
func (r *convFwdRunnerOf[F]) Do(i, w int) {
	c := r.c
	s := &c.ws[w]
	inDim, outDim := c.InDim(), c.OutDim()
	tensor.Im2ColOf(c.Geom, c.call.xd[i*inDim:(i+1)*inDim], s.colT)
	s.out.Rebind(c.call.yd[i*outDim : (i+1)*outDim])
	tensor.MatMulPacked(s.out, c.W.Value, s.colT)
	s.out.Add(c.biasRows)
}

// Forward computes the convolution for each sample in the batch.
func (c *Conv2DOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	return c.forward(x, uninitT[F](c.arena, x.Dim(0), c.OutDim()), train)
}

// forwardOwned is the inference pass over an input the chain owns: a
// convolution that keeps the feature count writes its output over x. Each
// sample's rows are unfolded into the worker's patch matrix before the
// product writes them, and no other sample reads them. One that changes the
// count takes a fresh output: sample i's output rows would start inside
// another sample's input, which a worker may not have unfolded yet.
func (c *Conv2DOf[F]) forwardOwned(x *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	if c.OutDim() != c.InDim() {
		return c.Forward(x, false)
	}
	return c.forward(x, x, false)
}

// forward convolves x into y, which is either x itself (forwardOwned) or
// shares no storage with it.
func (c *Conv2DOf[F]) forward(x, y *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	batch := x.Dim(0)
	c.call.xd, c.call.yd = x.Data(), y.Data()
	pos := c.Geom.ColRows()
	for oc, b := range c.B.Value.Data() {
		row := c.biasRows.Data()[oc*pos : (oc+1)*pos]
		for j := range row {
			row[j] = b
		}
	}
	parallelSamples(batch, c.heavy(batch), &c.fwdRun)
	c.call.xd, c.call.yd = nil, nil
	c.x = nil // an inference pass leaves nothing for Backward to read
	if train {
		c.x = x
		c.gen = stampGen(c.arena)
	}
	return y
}

// convBwdRunnerOf is the backward pass's sampleRunner.
type convBwdRunnerOf[F tensor.Float] struct{ c *Conv2DOf[F] }

// begin draws each worker's backward scratch: the patch matrix with its
// zeroed padded image, the patch-gradient matrix when dx is needed, and
// headers for the dout rows and the dW slot.
func (r *convBwdRunnerOf[F]) begin(workers int) {
	c := r.c
	pos, patch := c.Geom.ColRows(), c.Geom.ColCols()
	for w := range c.scratch(workers) {
		s := &c.ws[w]
		s.col = packedT[F](c.arena, c.Geom, pos, patch)
		if c.call.dxd != nil {
			s.dcolT = uninitT[F](c.arena, patch, pos)
		}
		s.doutS = tensor.ViewOf(c.arena, c.call.dd[:c.OutDim()], c.OutC, pos)
		s.dWi = tensor.ViewOf(c.arena, c.call.dWs[:c.OutC*patch], c.OutC, patch)
	}
}

func (r *convBwdRunnerOf[F]) end() { r.c.endScratch() }

// Do computes one sample's private weight/bias gradient contributions
// and, unless the call skips it, its input gradient.
func (r *convBwdRunnerOf[F]) Do(i, w int) {
	c := r.c
	s := &c.ws[w]
	pos, patch := c.Geom.ColRows(), c.Geom.ColCols()
	inDim, outDim := c.InDim(), c.OutDim()
	tensor.Im2ColPackedOf(c.Geom, c.call.xd[i*inDim:(i+1)*inDim], s.col)
	s.doutS.Rebind(c.call.dd[i*outDim : (i+1)*outDim])
	// dW_i[outC,patch] = dout_i[outC,pos] · col[pos,patch]
	s.dWi.Rebind(c.call.dWs[i*c.OutC*patch : (i+1)*c.OutC*patch])
	tensor.MatMulPacked(s.dWi, s.doutS, s.col)
	// db_i[oc] = Σ_pos dout_i[oc,pos]
	rowSums(c.call.dBs[i*c.OutC:(i+1)*c.OutC], s.doutS.Data(), pos)
	if c.call.dxd == nil {
		return
	}
	// dcolᵀ[patch,pos] = Wᵀ[patch,outC] · dout_i[outC,pos]
	tensor.MatMulTransA(s.dcolT, c.W.Value, s.doutS)
	tensor.Col2ImOf(c.Geom, s.dcolT.Data(), c.call.dxd[i*inDim:(i+1)*inDim])
}

// rowSums sets dst[r] to the sum of row r of src (len(dst) rows of cols), each
// row added left to right. A row's sum is one chain of dependent additions,
// so four rows advance side by side: four chains in flight instead of one,
// every one in its own order.
func rowSums[F tensor.Float](dst, src []F, cols int) {
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		r0, r1 := src[r*cols:(r+1)*cols], src[(r+1)*cols:(r+2)*cols]
		r2, r3 := src[(r+2)*cols:(r+3)*cols], src[(r+3)*cols:(r+4)*cols]
		var s0, s1, s2, s3 F
		for j, v := range r0 {
			s0 += v
			s1 += r1[j]
			s2 += r2[j]
			s3 += r3[j]
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < len(dst); r++ {
		var sum F
		for _, v := range src[r*cols : (r+1)*cols] {
			sum += v
		}
		dst[r] = sum
	}
}

// Backward propagates gradients. Per-sample weight/bias gradient
// contributions are computed in parallel into per-sample buffers and then
// reduced sequentially in sample order, so the floating-point accumulation
// order — and therefore the result — is identical at any worker count.
func (c *Conv2DOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	return c.backward(dout, true)
}

func (c *Conv2DOf[F]) backwardParams(dout *tensor.TensorOf[F]) { c.backward(dout, false) }

// backward accumulates the parameter gradients and, when needDx is set,
// returns the input gradient; without it neither the dcolᵀ product nor
// Col2Im runs and the result is nil.
func (c *Conv2DOf[F]) backward(dout *tensor.TensorOf[F], needDx bool) *tensor.TensorOf[F] {
	if c.x == nil {
		panic("nn: Conv2D.Backward without prior Forward(train=true)")
	}
	checkGen(c.arena, c.gen, "nn.Conv2D")
	batch := dout.Dim(0)
	patch := c.Geom.ColCols()
	var dx *tensor.TensorOf[F]
	if needDx {
		dx = allocT[F](c.arena, batch, c.InDim()) // zeroed: Col2ImOf adds into it
		c.call.dxd = dx.Data()
	}
	// Per-sample gradient contributions, reduced in order afterwards.
	dWs := uninitT[F](c.arena, batch, c.OutC*patch)
	dBs := uninitT[F](c.arena, batch, c.OutC)
	c.call.xd, c.call.dd, c.call.dWs, c.call.dBs = c.x.Data(), dout.Data(), dWs.Data(), dBs.Data()
	parallelSamples(batch, c.heavy(batch), &c.bwdRun)
	c.call.xd, c.call.dd, c.call.dxd, c.call.dWs, c.call.dBs = nil, nil, nil, nil, nil
	// Deterministic reduction in sample order: each gradient element is one
	// chain of additions, sample 0 first.
	c.W.Grad.AddRows(dWs)
	c.B.Grad.AddRows(dBs)
	releaseT(c.arena, dWs)
	releaseT(c.arena, dBs)
	c.x = nil
	return dx
}

// Params returns weight and bias.
func (c *Conv2DOf[F]) Params() []*ParamOf[F] { return []*ParamOf[F]{c.W, c.B} }

// backwardReadsInput: Backward unfolds x again into the patches dW needs.
func (c *Conv2DOf[F]) backwardReadsInput() bool { return true }
