package nn

import (
	"fmt"

	"fedca/internal/tensor"
)

// MaxPool2DOf is a max pooling layer over [B, C·H·W] inputs.
type MaxPool2DOf[F tensor.Float] struct {
	C, H, W    int
	K, Stride  int
	OutH, OutW int
	argmax     []int32 // per Forward: input offset chosen for each output elem
	batch      int

	arena *tensor.Arena
	gen   uint64

	// call is the per-batch state the forward runner reads; see Conv2DOf.
	// argmax is nil on an inference pass.
	call struct {
		xd, yd []F
		argmax []int32
	}
	fwdRun poolFwdRunnerOf[F]
}

// NewMaxPool2DOf creates a max-pool layer with square kernel K and stride.
func NewMaxPool2DOf[F tensor.Float](c, h, w, k, stride int) *MaxPool2DOf[F] {
	if k <= 0 || stride <= 0 {
		panic("nn: MaxPool2D kernel and stride must be positive")
	}
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D output %dx%d not positive", outH, outW))
	}
	p := &MaxPool2DOf[F]{C: c, H: h, W: w, K: k, Stride: stride, OutH: outH, OutW: outW}
	p.fwdRun.p = p
	return p
}

// OutDim returns the per-sample output feature count.
func (p *MaxPool2DOf[F]) OutDim() int { return p.C * p.OutH * p.OutW }

// InDim returns the expected per-sample input feature count.
func (p *MaxPool2DOf[F]) InDim() int { return p.C * p.H * p.W }

func (p *MaxPool2DOf[F]) setArena(a *tensor.Arena) { p.arena = a }

// poolFwdRunnerOf is the forward pass's sampleRunner; a work index is a sample.
type poolFwdRunnerOf[F tensor.Float] struct {
	noScratch
	p *MaxPool2DOf[F]
}

func (r *poolFwdRunnerOf[F]) Do(i, _ int) {
	p := r.p
	inDim, outDim := p.InDim(), p.OutDim()
	xs := p.call.xd[i*inDim : (i+1)*inDim]
	ys := p.call.yd[i*outDim : (i+1)*outDim]
	var am []int32
	if p.call.argmax != nil {
		am = p.call.argmax[i*outDim : (i+1)*outDim]
	}
	if p.K == 2 && p.Stride == 2 {
		// The window every model here uses: sampleGeneric's chain of strict
		// comparisons in the same order, at vector width.
		tensor.MaxPool2x2(ys, am, xs, p.C, p.H, p.W)
	} else {
		p.sampleGeneric(xs, ys, am)
	}
}

// sampleGeneric pools one sample at any kernel and stride. The window is
// scanned in (ky, kx) order and a later element wins only if strictly
// greater, so the first of equal maxima is chosen and a NaN never displaces
// anything; am, when not nil, receives the winner's input offset.
func (p *MaxPool2DOf[F]) sampleGeneric(xs, ys []F, am []int32) {
	oi := 0
	for c := 0; c < p.C; c++ {
		chanBase := c * p.H * p.W
		for oy := 0; oy < p.OutH; oy++ {
			for ox := 0; ox < p.OutW; ox++ {
				bestOff := chanBase + oy*p.Stride*p.W + ox*p.Stride
				best := xs[bestOff]
				for ky := 0; ky < p.K; ky++ {
					rowOff := chanBase + (oy*p.Stride+ky)*p.W + ox*p.Stride
					for kx := 0; kx < p.K; kx++ {
						if v := xs[rowOff+kx]; v > best {
							best = v
							bestOff = rowOff + kx
						}
					}
				}
				ys[oi] = best
				if am != nil {
					am[oi] = int32(bestOff)
				}
				oi++
			}
		}
	}
}

// Forward selects the maximum in each pooling window.
func (p *MaxPool2DOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	batch := x.Dim(0)
	outDim := p.OutDim()
	y := uninitT[F](p.arena, batch, outDim)
	// An eval-mode forward invalidates any earlier training pass: leaving
	// stale argmax/batch here would let a later Backward silently route
	// gradients with the old batch's winner indices (or index out of bounds
	// if the batch shrank). Backward after an eval forward must panic,
	// exactly like Backward with no forward at all.
	p.argmax, p.batch = nil, 0
	if train {
		if p.arena != nil {
			p.argmax = p.arena.Int32Uninit(batch * outDim)
		} else {
			p.argmax = make([]int32, batch*outDim)
		}
		p.batch = batch
		p.gen = stampGen(p.arena)
	}
	p.call.xd, p.call.yd, p.call.argmax = x.Data(), y.Data(), p.argmax
	parallelSamples(batch, heavyElems(batch*p.InDim()), &p.fwdRun)
	p.call.xd, p.call.yd, p.call.argmax = nil, nil, nil
	return y
}

// Backward routes each output gradient to the input element that won the max.
func (p *MaxPool2DOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward without prior Forward(train=true)")
	}
	checkGen(p.arena, p.gen, "nn.MaxPool2D")
	outDim := p.OutDim()
	inDim := p.InDim()
	dx := allocT[F](p.arena, p.batch, inDim) // zeroed: the winners are added into it
	dd, dxd := dout.Data(), dx.Data()
	for i := 0; i < p.batch; i++ {
		for oi := 0; oi < outDim; oi++ {
			dxd[i*inDim+int(p.argmax[i*outDim+oi])] += dd[i*outDim+oi]
		}
	}
	p.argmax = nil
	return dx
}

// Params returns nil: pooling has no parameters.
func (p *MaxPool2DOf[F]) Params() []*ParamOf[F] { return nil }

// backwardReadsInput: Backward routes by the argmax alone.
func (p *MaxPool2DOf[F]) backwardReadsInput() bool { return false }

// GlobalAvgPool2DOf averages each channel over its spatial extent,
// mapping [B, C·H·W] to [B, C]. Used as the WRN head.
type GlobalAvgPool2DOf[F tensor.Float] struct {
	C, H, W int

	arena *tensor.Arena
}

// NewGlobalAvgPool2DOf creates a global average pooling layer.
func NewGlobalAvgPool2DOf[F tensor.Float](c, h, w int) *GlobalAvgPool2DOf[F] {
	return &GlobalAvgPool2DOf[F]{C: c, H: h, W: w}
}

// OutDim returns C.
func (g *GlobalAvgPool2DOf[F]) OutDim() int { return g.C }

func (g *GlobalAvgPool2DOf[F]) setArena(a *tensor.Arena) { g.arena = a }

// Forward averages spatially per channel.
func (g *GlobalAvgPool2DOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	batch := x.Dim(0)
	spatial := g.H * g.W
	inDim := g.C * spatial
	y := uninitT[F](g.arena, batch, g.C)
	xd, yd := x.Data(), y.Data()
	inv := 1.0 / float64(spatial)
	for i := 0; i < batch; i++ {
		xs := xd[i*inDim : (i+1)*inDim]
		for c := 0; c < g.C; c++ {
			sum := 0.0
			for _, v := range xs[c*spatial : (c+1)*spatial] {
				sum += float64(v)
			}
			yd[i*g.C+c] = F(sum * inv)
		}
	}
	return y
}

// Backward spreads each channel gradient uniformly over its spatial extent.
// The layer caches nothing: the batch is dout's.
func (g *GlobalAvgPool2DOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	batch := dout.Dim(0)
	spatial := g.H * g.W
	inDim := g.C * spatial
	dx := uninitT[F](g.arena, batch, inDim)
	dd, dxd := dout.Data(), dx.Data()
	inv := 1.0 / float64(spatial)
	for i := 0; i < batch; i++ {
		for c := 0; c < g.C; c++ {
			grad := F(float64(dd[i*g.C+c]) * inv)
			row := dxd[i*inDim+c*spatial : i*inDim+(c+1)*spatial]
			for j := range row {
				row[j] = grad
			}
		}
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (g *GlobalAvgPool2DOf[F]) Params() []*ParamOf[F] { return nil }

// backwardReadsInput: Backward spreads dout alone.
func (g *GlobalAvgPool2DOf[F]) backwardReadsInput() bool { return false }
