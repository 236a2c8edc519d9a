// Package nn implements the neural-network training stack used by the FedCA
// reproduction: layers with hand-written forward/backward passes, named
// parameters (so FedCA can reason at per-layer granularity, e.g.
// "conv2.weight" or "rnn.weight_hh_l0"), a softmax-cross-entropy loss and an
// SGD optimizer with weight decay.
//
// Data layout: a batch is a 2-D tensor [B, features]; convolutional layers
// interpret the feature dimension as C·H·W with geometry fixed at
// construction time. Each layer caches what it needs during Forward and
// consumes the cache in Backward, so the usage pattern is strictly
// forward-then-backward per batch (as in a standard training loop).
//
// Dtype: every layer is generic over tensor.Float and has one name, the
// generic one (DenseOf[float64], LayerOf[float32], …); Network and Param
// alias the float64 network and parameter the server side holds. The
// float32 instantiation is the mixed-precision client compute path — master
// weights and aggregation stay float64 outside this package, with
// FlatParams/SetFlatParams converting at the boundary.
//
// Arena: a network may be bound to a tensor.Arena (SetArena), in which case
// layers bump-allocate all per-iteration scratch — activations, masks,
// per-sample gradient buffers — from the arena instead of make. The training
// loop resets the arena once per iteration; layers stamp the arena generation
// at Forward and check it in Backward, so using a cache across a Reset panics
// instead of silently reading recycled memory. A Forward with train false is
// an inference pass: it caches nothing, it writes a layer's output over the
// activation the layer is handed where it can, and with an arena bound it
// hands each intermediate back as soon as the next layer has consumed it. A
// training pass does the same with every activation no Backward reads (see
// forwardChain), and Backward with every gradient between two layers.
package nn

import (
	"fmt"

	"fedca/internal/tensor"
)

// ParamOf is a named trainable parameter with its gradient accumulator.
// Names are hierarchical with dots, e.g. "conv1.weight", "fc2.bias",
// "rnn.weight_ih_l0", "conv3.0.residual.0.weight" — deliberately matching the
// PyTorch-style names the paper's figures reference.
type ParamOf[F tensor.Float] struct {
	Name  string
	Value *tensor.TensorOf[F]
	Grad  *tensor.TensorOf[F]
}

// Param is the float64 parameter, the aggregation-side dtype.
type Param = ParamOf[float64]

// newParamOf allocates a parameter and its gradient with the same shape.
// Parameters are long-lived and never come from an arena.
func newParamOf[F tensor.Float](name string, shape ...int) *ParamOf[F] {
	return &ParamOf[F]{Name: name, Value: tensor.NewOf[F](shape...), Grad: tensor.NewOf[F](shape...)}
}

// newParam allocates a float64 parameter, the historical form of newParamOf.
func newParam(name string, shape ...int) *Param { return newParamOf[float64](name, shape...) }

// LayerOf is one differentiable stage of a network.
type LayerOf[F tensor.Float] interface {
	// Forward computes the layer output for a batch. train toggles
	// training-only behaviour (batch-norm statistics).
	Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F]
	// Backward receives dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients into Params().Grad. It must be called exactly once
	// after each Forward with train=true.
	Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F]
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*ParamOf[F]
	// OutDim returns the per-sample output feature count.
	OutDim() int
}

// inputReader is implemented by layers that declare whether the input tensor
// of a training Forward must outlive the call: whether Backward reads it.
// When it need not, forwardChain releases it as soon as the layer returns; a
// layer that declares nothing counts as reading it. No Backward reads its own
// output.
type inputReader interface {
	backwardReadsInput() bool
}

// readsInput reports whether the input of l's training Forward must outlive
// the call (see inputReader).
func readsInput[F tensor.Float](l LayerOf[F]) bool {
	if r, ok := l.(inputReader); ok {
		return r.backwardReadsInput()
	}
	return true
}

// arenaLayer is implemented by layers that can draw per-iteration scratch
// from an arena.
type arenaLayer interface {
	setArena(*tensor.Arena)
}

// allocT allocates a zeroed tensor from the arena when one is bound, else
// from the heap. It is for buffers whose consumer accumulates into them;
// every call site says which consumer that is.
func allocT[F tensor.Float](a *tensor.Arena, shape ...int) *tensor.TensorOf[F] {
	if a != nil {
		return tensor.AllocOf[F](a, shape...)
	}
	return tensor.NewOf[F](shape...)
}

// uninitT allocates a tensor the caller overwrites completely before anything
// reads it: from the arena its contents are arbitrary, which saves the pass
// that would zero them. (The heap has no such form, so there it is NewOf.)
func uninitT[F tensor.Float](a *tensor.Arena, shape ...int) *tensor.TensorOf[F] {
	if a != nil {
		return tensor.AllocUninitOf[F](a, shape...)
	}
	return tensor.NewOf[F](shape...)
}

// uninitF is uninitT for a bare slice.
func uninitF[F tensor.Float](a *tensor.Arena, n int) []F {
	if a != nil {
		return tensor.ArenaSliceUninit[F](a, n)
	}
	return make([]F, n)
}

// uninitBools is uninitT for a mask.
func uninitBools(a *tensor.Arena, n int) []bool {
	if a != nil {
		return a.BoolsUninit(n)
	}
	return make([]bool, n)
}

// releaseT hands an intermediate — an inference-pass activation or a
// consumed gradient — back to the arena for the next allocation of its size;
// without an arena the collector has it.
func releaseT[F tensor.Float](a *tensor.Arena, t *tensor.TensorOf[F]) {
	if a != nil {
		tensor.ReleaseOf(a, t)
	}
}

// packedT draws a packed k×n operand for g's im2col writers, with its padded
// image: from the arena when one is bound, the image zeroed there; else from
// the heap, where the operand makes its image, zeroed, on first use.
func packedT[F tensor.Float](a *tensor.Arena, g tensor.ConvGeom, k, n int) *tensor.PackedBOf[F] {
	if a != nil {
		return tensor.AllocPackedOf[F](a, g, k, n)
	}
	return tensor.NewPackedBOf[F](k, n)
}

// releasePacked is releaseT for a packed operand.
func releasePacked[F tensor.Float](a *tensor.Arena, pb *tensor.PackedBOf[F]) {
	if a != nil {
		tensor.ReleasePackedOf(a, pb)
	}
}

// ownedForwarder is implemented by layers with an inference form that
// consumes its input: handed an activation its chain owns, which nothing
// reads after the layer, forwardOwned returns either that tensor written in
// place or a tensor sharing no storage with it. ReLU rectifies in place,
// batch norm normalizes in place, a convolution that keeps the feature count
// writes its output over its input, and a residual block sums into its
// body's result (DESIGN §15 has the table and the reasons).
type ownedForwarder[F tensor.Float] interface {
	forwardOwned(x *tensor.TensorOf[F]) *tensor.TensorOf[F]
}

// forwardChain runs layers in order over x. With an arena bound, a pass keeps
// only what is still needed: each intermediate goes back to the arena as soon
// as the layer consuming it has returned — on a training pass unless that
// layer's Backward reads it (readsInput) — so an inference chain holds the
// current layer's input and output instead of every layer's output, and a
// training chain what its backward pass reads. Ownership is by creation:
// the chain owns the tensors its own layers created, and x only when owned
// is set (a residual body whose block owns its input); a layer that returns
// its input (an in-place forwardOwned) has created nothing. A layer's output
// must therefore either be its input tensor or share no storage with it.
// On an inference pass a layer handed a tensor the chain owns consumes it
// (ownedForwarder) where it can, instead of taking a second activation of
// its size; a tensor the chain does not own — the caller's — is never
// written.
func forwardChain[F tensor.Float](a *tensor.Arena, layers []LayerOf[F], x *tensor.TensorOf[F], train, owned bool) *tensor.TensorOf[F] {
	for _, l := range layers {
		var y *tensor.TensorOf[F]
		if o, ok := l.(ownedForwarder[F]); ok && !train && owned {
			y = o.forwardOwned(x)
		} else {
			y = l.Forward(x, train)
		}
		if y != x {
			if owned && (!train || !readsInput(l)) {
				releaseT(a, x)
			}
			owned = true
		}
		x = y
	}
	return x
}

// backwardChain runs layers in reverse over dout under forwardChain's rule:
// each gradient the chain's own layers created goes back to the arena once
// the layer consuming it has returned, and dout, the caller's, never does. A
// layer's input gradient must therefore either be its output gradient tensor
// or share no storage with it.
func backwardChain[F tensor.Float](a *tensor.Arena, layers []LayerOf[F], dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	d := dout
	for i := len(layers) - 1; i >= 0; i-- {
		dx := layers[i].Backward(d)
		if dx != d && d != dout {
			releaseT(a, d)
		}
		d = dx
	}
	return d
}

// stampGen records the current arena generation (0 without an arena).
func stampGen(a *tensor.Arena) uint64 {
	if a != nil {
		return a.Gen()
	}
	return 0
}

// checkGen panics if the arena was Reset since gen was stamped.
func checkGen(a *tensor.Arena, gen uint64, owner string) {
	if a != nil {
		a.CheckGen(gen, owner)
	}
}

// NetworkOf is a sequential composition of layers with a stable, flat list of
// named parameters.
type NetworkOf[F tensor.Float] struct {
	Layers       []LayerOf[F]
	params       []*ParamOf[F]
	arena        *tensor.Arena
	batchCoupled bool
}

// Network is the float64 network.
type Network = NetworkOf[float64]

// NewNetworkOf builds a network from layers and collects their parameters in
// order. Duplicate parameter names are a construction bug and panic.
func NewNetworkOf[F tensor.Float](layers ...LayerOf[F]) *NetworkOf[F] {
	n := &NetworkOf[F]{Layers: layers}
	seen := make(map[string]bool)
	for _, l := range layers {
		for _, p := range l.Params() {
			if seen[p.Name] {
				panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
			}
			seen[p.Name] = true
			n.params = append(n.params, p)
		}
	}
	n.VisitLayers(func(l LayerOf[F]) {
		if _, ok := l.(*BatchNorm2DOf[F]); ok {
			n.batchCoupled = true
		}
	})
	return n
}

// BatchCoupled reports whether a sample's output depends on the rest of its
// batch: whether the network holds a batch norm, which normalizes with the
// batch's statistics. Without one, every sample gets the same output
// whatever batch it is evaluated in.
func (n *NetworkOf[F]) BatchCoupled() bool { return n.batchCoupled }

// SetArena binds an arena to every layer of the network (including layers
// nested in residual blocks). Passing nil detaches it and layers fall back to
// heap allocation. The caller owns the Reset cadence: once per training
// iteration, after the optimizer step, or once per inference batch.
func (n *NetworkOf[F]) SetArena(a *tensor.Arena) {
	n.arena = a
	n.VisitLayers(func(l LayerOf[F]) {
		if al, ok := l.(arenaLayer); ok {
			al.setArena(a)
		}
	})
}

// Arena returns the bound arena, or nil.
func (n *NetworkOf[F]) Arena() *tensor.Arena { return n.arena }

// Forward runs the full network. With an arena bound, an inference pass holds
// a few activations at a time and a training pass only those its Backward
// reads (see forwardChain); the result is valid until the arena's next Reset.
func (n *NetworkOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	return forwardChain(n.arena, n.Layers, x, train, false)
}

// paramsOnlyLayer is implemented by layers whose backward pass can leave out
// dL/d(input): Conv2D (a product and a Col2Im per sample), Dense (a product)
// and LSTM (a product per timestep of its bottom layer). Parameter gradients
// are the same bits either way.
type paramsOnlyLayer[F tensor.Float] interface {
	backwardParams(dout *tensor.TensorOf[F])
}

// Backward propagates dout through all layers in reverse, accumulating every
// parameter gradient. Nothing trains the network's input, so the first layer
// is asked for its parameter gradients only when it can tell the two apart,
// and the result is then nil; otherwise it is the first layer's dL/d(input).
// Per-layer Backward keeps the full contract for callers that want it. With
// an arena bound, each gradient between two layers goes back to it once
// consumed (see backwardChain); dout stays the caller's.
func (n *NetworkOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	if len(n.Layers) == 0 {
		return dout
	}
	first, ok := n.Layers[0].(paramsOnlyLayer[F])
	if !ok {
		return backwardChain(n.arena, n.Layers, dout)
	}
	d := backwardChain(n.arena, n.Layers[1:], dout)
	first.backwardParams(d)
	if d != dout {
		releaseT(n.arena, d)
	}
	return nil
}

// Params returns all parameters in construction order.
func (n *NetworkOf[F]) Params() []*ParamOf[F] { return n.params }

// ZeroGrad clears every parameter gradient.
func (n *NetworkOf[F]) ZeroGrad() {
	for _, p := range n.params {
		p.Grad.Zero()
	}
}

// NumParams returns the total scalar parameter count.
func (n *NetworkOf[F]) NumParams() int {
	total := 0
	for _, p := range n.params {
		total += p.Value.Size()
	}
	return total
}

// FlatParams copies all parameter values into a single flat float64 vector,
// in construction order. The layout is stable across calls and across dtypes:
// a float32 network widens each value, so the flat vector is always the
// aggregation-side float64 view.
func (n *NetworkOf[F]) FlatParams() []float64 {
	out := make([]float64, 0, n.NumParams())
	for _, p := range n.params {
		for _, v := range p.Value.Data() {
			out = append(out, float64(v))
		}
	}
	return out
}

// SetFlatParams loads parameter values from a flat float64 vector produced by
// FlatParams (or by aggregation of such vectors). A float32 network rounds
// each master value to its working precision here — the single, well-defined
// narrowing point of the mixed-precision path.
func (n *NetworkOf[F]) SetFlatParams(flat []float64) {
	if len(flat) != n.NumParams() {
		panic(fmt.Sprintf("nn: SetFlatParams got %d values, want %d", len(flat), n.NumParams()))
	}
	off := 0
	for _, p := range n.params {
		d := p.Value.Data()
		for i := range d {
			d[i] = F(flat[off+i])
		}
		off += len(d)
	}
}

// ParamRanges returns, for each named parameter in order, its [start, end)
// range within the flat vector. FedCA uses this to slice per-layer updates
// out of a flat accumulated update.
func (n *NetworkOf[F]) ParamRanges() []ParamRange {
	out := make([]ParamRange, 0, len(n.params))
	off := 0
	for _, p := range n.params {
		sz := p.Value.Size()
		out = append(out, ParamRange{Name: p.Name, Start: off, End: off + sz})
		off += sz
	}
	return out
}

// VisitLayers walks every layer depth-first, descending into residual blocks.
func (n *NetworkOf[F]) VisitLayers(fn func(LayerOf[F])) {
	var walk func(ls []LayerOf[F])
	walk = func(ls []LayerOf[F]) {
		for _, l := range ls {
			fn(l)
			if r, ok := l.(*ResidualOf[F]); ok {
				walk(r.Body)
				walk(r.Shortcut)
			}
		}
	}
	walk(n.Layers)
}

// ParamRange locates one named parameter inside the flat parameter vector.
type ParamRange struct {
	Name       string
	Start, End int
}

// Size returns the number of scalars in the range.
func (r ParamRange) Size() int { return r.End - r.Start }
