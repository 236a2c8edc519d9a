package nn

import (
	"math"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// InitKaiming fills p.Value with Kaiming-normal weights for the given fan-in,
// the standard initialization for ReLU networks. Draws come from the RNG in
// float64 regardless of dtype, so a float32 parameter sees exactly the
// rounded float64 initialization (and consumes the same RNG stream).
func InitKaiming[F tensor.Float](p *ParamOf[F], fanIn int, r *rng.RNG) {
	std := math.Sqrt(2.0 / float64(fanIn))
	d := p.Value.Data()
	for i := range d {
		d[i] = F(r.Normal(0, std))
	}
}

// InitXavier fills p.Value with Xavier/Glorot-uniform weights, the standard
// initialization for tanh/sigmoid (LSTM) layers.
func InitXavier[F tensor.Float](p *ParamOf[F], fanIn, fanOut int, r *rng.RNG) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	d := p.Value.Data()
	for i := range d {
		d[i] = F(r.Uniform(-limit, limit))
	}
}
