package nn

import (
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// DenseOf is a fully connected layer: y = x·Wᵀ + b with W of shape [out, in].
type DenseOf[F tensor.Float] struct {
	In, Out int
	W, B    *ParamOf[F]
	x       *tensor.TensorOf[F] // cached input for Backward

	arena *tensor.Arena
	gen   uint64
}

// NewDenseOf creates a dense layer whose parameters are named
// "<name>.weight" and "<name>.bias" for any float dtype.
func NewDenseOf[F tensor.Float](name string, in, out int, r *rng.RNG) *DenseOf[F] {
	d := &DenseOf[F]{
		In:  in,
		Out: out,
		W:   newParamOf[F](name+".weight", out, in),
		B:   newParamOf[F](name+".bias", out),
	}
	d.seed(r)
	return d
}

func (d *DenseOf[F]) seed(r *rng.RNG) {
	InitKaiming(d.W, d.In, r)
	d.B.Value.Zero()
}

func (d *DenseOf[F]) setArena(a *tensor.Arena) { d.arena = a }

// Forward computes y[B,out] = x[B,in]·Wᵀ + b.
func (d *DenseOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	batch := x.Dim(0)
	y := uninitT[F](d.arena, batch, d.Out)
	tensor.MatMulTransB(y, x, d.W.Value)
	bd := d.B.Value.Data()
	yd := y.Data()
	for i := 0; i < batch; i++ {
		row := yd[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	d.x = nil // an inference pass leaves nothing for Backward to read
	if train {
		d.x = x
		d.gen = stampGen(d.arena)
	}
	return y
}

// Backward computes dx = dout·W, dW += doutᵀ·x, db += Σ_batch dout.
func (d *DenseOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	return d.backward(dout, true)
}

func (d *DenseOf[F]) backwardParams(dout *tensor.TensorOf[F]) { d.backward(dout, false) }

func (d *DenseOf[F]) backward(dout *tensor.TensorOf[F], needDx bool) *tensor.TensorOf[F] {
	if d.x == nil {
		panic("nn: Dense.Backward without prior Forward(train=true)")
	}
	checkGen(d.arena, d.gen, "nn.Dense")
	batch := dout.Dim(0)
	// dW[out,in] += doutᵀ[out,B] · x[B,in]
	dW := uninitT[F](d.arena, d.Out, d.In)
	tensor.MatMulTransA(dW, dout, d.x)
	d.W.Grad.Add(dW)
	// db += column sums of dout
	d.B.Grad.AddRows(dout)
	d.x = nil
	if !needDx {
		return nil
	}
	// dx[B,in] = dout[B,out] · W[out,in]
	dx := uninitT[F](d.arena, batch, d.In)
	tensor.MatMul(dx, dout, d.W.Value)
	return dx
}

// Params returns weight and bias.
func (d *DenseOf[F]) Params() []*ParamOf[F] { return []*ParamOf[F]{d.W, d.B} }

// backwardReadsInput: dW is doutᵀ·x.
func (d *DenseOf[F]) backwardReadsInput() bool { return true }

// OutDim returns the output feature count.
func (d *DenseOf[F]) OutDim() int { return d.Out }
