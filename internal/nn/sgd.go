package nn

import "fedca/internal/tensor"

// SGDOf is stochastic gradient descent with optional momentum and
// decoupled-L2 weight decay, matching the paper's optimizer setup (plain SGD
// + weight decay; learning rates 0.01/0.05/0.1 per model). Hyperparameters
// and update arithmetic are float64 for both dtypes; a float32 network rounds
// each updated weight (and momentum entry) to the working precision on store.
type SGDOf[F tensor.Float] struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*ParamOf[F]]*tensor.TensorOf[F]
}

// NewSGDOf creates an optimizer for any float dtype.
func NewSGDOf[F tensor.Float](lr, momentum, weightDecay float64) *SGDOf[F] {
	return &SGDOf[F]{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: make(map[*ParamOf[F]]*tensor.TensorOf[F])}
}

// Step applies one update to every parameter:
//
//	g   = grad + wd·w
//	v   = μ·v + g        (momentum buffer, if μ > 0)
//	w  -= lr · v
//
// Every product is an explicit conversion, which no compiler may fuse with
// the sum or difference that consumes it, so a step is the same on every
// machine; without momentum it is tensor.SGDStep, the same arithmetic four
// weights at a time.
func (s *SGDOf[F]) Step(params []*ParamOf[F]) {
	for _, p := range params {
		w := p.Value.Data()
		g := p.Grad.Data()
		if s.Momentum <= 0 {
			tensor.SGDStep(w, g, s.LR, s.WeightDecay)
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.NewOf[F](p.Value.Shape()...)
			s.velocity[p] = v
		}
		vd := v.Data()
		for i := range w {
			grad := float64(g[i]) + float64(s.WeightDecay*float64(w[i]))
			vd[i] = F(float64(s.Momentum*float64(vd[i])) + grad)
			w[i] = F(float64(w[i]) - float64(s.LR*float64(vd[i])))
		}
	}
}

// Reset zeroes the momentum buffers (used when a client adopts fresh global
// parameters at round start): the next step starts from v = 0 exactly as a
// new optimizer's first step does, in the buffers the last round grew.
func (s *SGDOf[F]) Reset() {
	for _, v := range s.velocity {
		clear(v.Data())
	}
}
