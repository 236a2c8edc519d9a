package nn

import (
	"fmt"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// LSTMOf is a (possibly multi-layer) LSTM over [B, T·D] inputs, returning the
// last hidden state of the top layer, [B, H]. Parameter names follow the
// PyTorch convention the paper's figures use: "<name>.weight_ih_l0",
// "<name>.weight_hh_l0", "<name>.bias_ih_l0", "<name>.bias_hh_l0", and the
// same with l1, l2, … for deeper stacks. Gate order is i, f, g, o.
//
// The cell — gate nonlinearities, c = f·c_prev + i·g, h = o·tanh c — evaluates
// in float64 for both dtypes (math.Exp/Tanh, which define the nonlinearities,
// have no float32 form in the standard library); a float32 network rounds the
// results to its working precision on store, while the GEMMs and the
// pre-activation sums run in the working dtype. tensor.LSTMCell is that cell.
type LSTMOf[F tensor.Float] struct {
	InDim, Hidden, T int
	layers           []*lstmLayerOf[F]

	arena *tensor.Arena
	gen   uint64
	seq   []*tensor.TensorOf[F] // persistent timestep-slicing buffer
	dhSeq []*tensor.TensorOf[F] // persistent backward buffer
}

type lstmLayerOf[F tensor.Float] struct {
	in, hidden         int
	wih, whh, bih, bhh *ParamOf[F]
	arena              *tensor.Arena
	// The weights as GEMM operands, packed once per pass instead of once per
	// timestep: transposed for Forward (x·W_ihᵀ, h·W_hhᵀ), as stored for bptt
	// (dgates·W_ih, dgates·W_hh).
	wihT, whhT, wihB, whhB *tensor.PackedBOf[F]
	// Per-Forward scratch: bias is b_ih + b_hh, hh receives h·W_hhᵀ at every
	// step.
	bias, hh *tensor.TensorOf[F]
	// BPTT caches, one entry per timestep; the slice headers persist across
	// iterations (reset to length zero, capacity kept) so steady-state
	// training appends without allocating. acts holds the activated gates
	// i|f|g|o of each batch row, [B, 4H].
	xs, hPrevs, cPrevs []*tensor.TensorOf[F]
	acts, tanhCs       []*tensor.TensorOf[F]
	out                []*tensor.TensorOf[F] // persistent forward output buffer
	dxSeq              []*tensor.TensorOf[F] // persistent bptt output buffer
	batch              int
}

// NewLSTMOf builds an LSTM stack for any float dtype. seqLen is the fixed
// number of timesteps T.
func NewLSTMOf[F tensor.Float](name string, inDim, hidden, seqLen, numLayers int, r *rng.RNG) *LSTMOf[F] {
	if numLayers < 1 {
		panic("nn: LSTM needs at least one layer")
	}
	l := &LSTMOf[F]{InDim: inDim, Hidden: hidden, T: seqLen}
	for i := 0; i < numLayers; i++ {
		in := inDim
		if i > 0 {
			in = hidden
		}
		ll := &lstmLayerOf[F]{
			in:     in,
			hidden: hidden,
			wih:    newParamOf[F](fmt.Sprintf("%s.weight_ih_l%d", name, i), 4*hidden, in),
			whh:    newParamOf[F](fmt.Sprintf("%s.weight_hh_l%d", name, i), 4*hidden, hidden),
			bih:    newParamOf[F](fmt.Sprintf("%s.bias_ih_l%d", name, i), 4*hidden),
			bhh:    newParamOf[F](fmt.Sprintf("%s.bias_hh_l%d", name, i), 4*hidden),
			wihT:   tensor.NewPackedBOf[F](in, 4*hidden),
			whhT:   tensor.NewPackedBOf[F](hidden, 4*hidden),
			wihB:   tensor.NewPackedBOf[F](4*hidden, in),
			whhB:   tensor.NewPackedBOf[F](4*hidden, hidden),
		}
		l.layers = append(l.layers, ll)
	}
	l.Init(r)
	return l
}

// Init applies Xavier initialization to the recurrent weights and sets the
// forget-gate bias to 1 (the classic trick for stable early training).
func (l *LSTMOf[F]) Init(r *rng.RNG) {
	for _, ll := range l.layers {
		InitXavier(ll.wih, ll.in, ll.hidden, r)
		InitXavier(ll.whh, ll.hidden, ll.hidden, r)
		ll.bih.Value.Zero()
		ll.bhh.Value.Zero()
		// forget-gate slice is [H, 2H)
		bd := ll.bih.Value.Data()
		for j := ll.hidden; j < 2*ll.hidden; j++ {
			bd[j] = 1
		}
	}
}

func (l *LSTMOf[F]) setArena(a *tensor.Arena) {
	l.arena = a
	for _, ll := range l.layers {
		ll.arena = a
	}
}

// OutDim returns the hidden size H.
func (l *LSTMOf[F]) OutDim() int { return l.Hidden }

// backwardReadsInput: Forward copies x into per-timestep rows, and BPTT reads
// those.
func (l *LSTMOf[F]) backwardReadsInput() bool { return false }

// Params returns all stacked-layer parameters in layer order.
func (l *LSTMOf[F]) Params() []*ParamOf[F] {
	var ps []*ParamOf[F]
	for _, ll := range l.layers {
		ps = append(ps, ll.wih, ll.whh, ll.bih, ll.bhh)
	}
	return ps
}

// step runs one timestep: given x [B,in], hPrev and cPrev [B,H], it returns
// h and c and (when train) caches everything needed for backward; an
// inference step releases its other two buffers before it returns. It runs
// the two products and hands the rest to tensor.LSTMCell, every batch row in
// one call.
func (ll *lstmLayerOf[F]) step(x, hPrev, cPrev *tensor.TensorOf[F], train bool) (h, c *tensor.TensorOf[F]) {
	batch := x.Dim(0)
	hid := ll.hidden
	act := uninitT[F](ll.arena, batch, 4*hid)
	tensor.MatMulPacked(act, x, ll.wihT)
	tensor.MatMulPacked(ll.hh, hPrev, ll.whhT)
	c = uninitT[F](ll.arena, batch, hid)
	h = uninitT[F](ll.arena, batch, hid)
	tc := uninitT[F](ll.arena, batch, hid)
	tensor.LSTMCell(act.Data(), ll.hh.Data(), ll.bias.Data(), cPrev.Data(), c.Data(), tc.Data(), h.Data(), hid)
	if train {
		ll.xs = append(ll.xs, x)
		ll.hPrevs = append(ll.hPrevs, hPrev)
		ll.cPrevs = append(ll.cPrevs, cPrev)
		ll.acts = append(ll.acts, act)
		ll.tanhCs = append(ll.tanhCs, tc)
	} else {
		// Only h and c outlive an inference step; the next step's
		// allocations take these over.
		releaseT(ll.arena, act)
		releaseT(ll.arena, tc)
	}
	return h, c
}

// Forward consumes [B, T·D] and returns the top layer's last hidden state.
func (l *LSTMOf[F]) Forward(x *tensor.TensorOf[F], train bool) *tensor.TensorOf[F] {
	batch := x.Dim(0)
	if x.Dim(1) != l.T*l.InDim {
		panic(fmt.Sprintf("nn: LSTM input dim %d, want T·D = %d", x.Dim(1), l.T*l.InDim))
	}
	// Slice the sequence into per-timestep tensors once.
	if l.seq == nil {
		l.seq = make([]*tensor.TensorOf[F], l.T)
	}
	seq := l.seq
	xd := x.Data()
	for t := 0; t < l.T; t++ {
		xt := uninitT[F](l.arena, batch, l.InDim)
		xtd := xt.Data()
		for b := 0; b < batch; b++ {
			copy(xtd[b*l.InDim:(b+1)*l.InDim], xd[b*l.T*l.InDim+t*l.InDim:b*l.T*l.InDim+(t+1)*l.InDim])
		}
		seq[t] = xt
	}
	var lastH *tensor.TensorOf[F]
	top := len(l.layers) - 1
	for li, ll := range l.layers {
		// Emptied on an inference pass too: it leaves nothing for Backward.
		ll.clearCaches()
		ll.batch = batch
		ll.wihT.PackTrans(ll.wih.Value)
		ll.whhT.PackTrans(ll.whh.Value)
		ll.bias = uninitT[F](ll.arena, 4*l.Hidden)
		ll.bias.AddInto(ll.bih.Value, ll.bhh.Value)
		ll.hh = uninitT[F](ll.arena, batch, 4*l.Hidden)
		h := allocT[F](ll.arena, batch, l.Hidden) // zeroed: h₀ = 0
		c := allocT[F](ll.arena, batch, l.Hidden) // zeroed: c₀ = 0
		if ll.out == nil {
			ll.out = make([]*tensor.TensorOf[F], l.T)
		}
		out := ll.out
		for t := 0; t < l.T; t++ {
			hPrev, cPrev := h, c
			h, c = ll.step(seq[t], hPrev, cPrev, train)
			out[t] = h
			if !train {
				// The layer is a chain that steps through time, under the
				// same rule as forwardChain: a buffer goes back once its last
				// reader has run. cPrev is read by this step alone; hPrev by
				// this step and, as out[t-1], by the layer above — so below
				// the top it lives until that layer has consumed the
				// sequence; the step's input is done either way.
				releaseT(ll.arena, cPrev)
				if li == top || t == 0 {
					releaseT(ll.arena, hPrev)
				}
				releaseT(ll.arena, seq[t])
			}
		}
		if !train {
			releaseT(ll.arena, c)
			releaseT(ll.arena, ll.bias)
			releaseT(ll.arena, ll.hh)
		}
		seq = out
		lastH = h
	}
	if train {
		l.gen = stampGen(l.arena)
	}
	return lastH
}

// Backward runs truncated-free BPTT over the cached sequence. dout is the
// gradient of the top layer's last hidden state.
func (l *LSTMOf[F]) Backward(dout *tensor.TensorOf[F]) *tensor.TensorOf[F] {
	return l.backward(dout, true)
}

func (l *LSTMOf[F]) backwardParams(dout *tensor.TensorOf[F]) { l.backward(dout, false) }

// backward runs BPTT; without needDx the bottom layer skips its per-timestep
// input-gradient product and the result is nil.
func (l *LSTMOf[F]) backward(dout *tensor.TensorOf[F], needDx bool) *tensor.TensorOf[F] {
	top := len(l.layers) - 1
	if len(l.layers[top].xs) != l.T {
		panic("nn: LSTM.Backward without prior Forward(train=true)")
	}
	checkGen(l.arena, l.gen, "nn.LSTM")
	batch := l.layers[top].batch
	// dhSeq[t] is the gradient flowing into layer L's hidden output at t
	// from above (the layer above's dx, or the head loss for the top layer).
	if l.dhSeq == nil {
		l.dhSeq = make([]*tensor.TensorOf[F], l.T)
	}
	dhSeq := l.dhSeq
	for t := range dhSeq {
		dhSeq[t] = allocT[F](l.arena, batch, l.Hidden) // zeroed: only h_T has a gradient from above
	}
	dhSeq[l.T-1].CopyFrom(dout)
	var dxSeq []*tensor.TensorOf[F]
	for li := top; li >= 0; li-- {
		dxSeq = l.layers[li].bptt(dhSeq, needDx || li > 0)
		if li > 0 {
			dhSeq = dxSeq
		}
	}
	if !needDx {
		return nil
	}
	// Reassemble [B, T·D] input gradient from the bottom layer's dx.
	dx := uninitT[F](l.arena, batch, l.T*l.InDim)
	dxd := dx.Data()
	for t := 0; t < l.T; t++ {
		sd := dxSeq[t].Data()
		for b := 0; b < batch; b++ {
			copy(dxd[b*l.T*l.InDim+t*l.InDim:b*l.T*l.InDim+(t+1)*l.InDim], sd[b*l.InDim:(b+1)*l.InDim])
		}
	}
	return dx
}

// bptt backpropagates through one layer's cached sequence. dhSeq[t] carries
// the external gradient on h_t; the recurrent gradient is threaded
// internally. It returns the per-timestep input gradients, or nil entries
// when needDx is false.
func (ll *lstmLayerOf[F]) bptt(dhSeq []*tensor.TensorOf[F], needDx bool) []*tensor.TensorOf[F] {
	T := len(ll.xs)
	batch := ll.batch
	hid := ll.hidden
	if ll.dxSeq == nil {
		ll.dxSeq = make([]*tensor.TensorOf[F], T)
	}
	dxSeq := ll.dxSeq
	if needDx {
		ll.wihB.Pack(ll.wih.Value)
	}
	ll.whhB.Pack(ll.whh.Value)
	dhNext := allocT[F](ll.arena, batch, hid) // recurrent dL/dh flowing from t+1; zeroed: none at T
	dcNext := allocT[F](ll.arena, batch, hid) // zeroed likewise
	// Every timestep overwrites the rest whole, so one set serves them all
	// and stays in cache; dhPrev and dcPrev trade places with dhNext and
	// dcNext at the end of a step.
	dhPrev, dcPrev := uninitT[F](ll.arena, batch, hid), uninitT[F](ll.arena, batch, hid)
	dh := uninitT[F](ll.arena, batch, hid)
	dgates := uninitT[F](ll.arena, batch, 4*hid)
	dWih := uninitT[F](ll.arena, 4*hid, ll.in)
	dWhh := uninitT[F](ll.arena, 4*hid, hid)
	for t := T - 1; t >= 0; t-- {
		dh.AddInto(dhSeq[t], dhNext)
		tensor.LSTMGateGrad(dgates.Data(), dcPrev.Data(), ll.acts[t].Data(), ll.tanhCs[t].Data(),
			ll.cPrevs[t].Data(), dh.Data(), dcNext.Data(), hid)
		// Parameter gradients: dWih += dgatesᵀ·x, dWhh += dgatesᵀ·hPrev, and
		// both biases += Σ_batch dgates.
		tensor.MatMulTransA(dWih, dgates, ll.xs[t])
		ll.wih.Grad.Add(dWih)
		tensor.MatMulTransA(dWhh, dgates, ll.hPrevs[t])
		ll.whh.Grad.Add(dWhh)
		ll.bih.Grad.AddRows(dgates)
		ll.bhh.Grad.AddRows(dgates)
		// Input and recurrent gradients.
		dxSeq[t] = nil
		if needDx {
			dxSeq[t] = uninitT[F](ll.arena, batch, ll.in)
			tensor.MatMulPacked(dxSeq[t], dgates, ll.wihB)
		}
		tensor.MatMulPacked(dhPrev, dgates, ll.whhB)
		dhNext, dhPrev = dhPrev, dhNext
		dcNext, dcPrev = dcPrev, dcNext
	}
	ll.clearCaches()
	return dxSeq
}

// clearCaches empties the BPTT caches, keeping their capacity for the next
// training Forward.
func (ll *lstmLayerOf[F]) clearCaches() {
	ll.xs, ll.hPrevs, ll.cPrevs = ll.xs[:0], ll.hPrevs[:0], ll.cPrevs[:0]
	ll.acts, ll.tanhCs = ll.acts[:0], ll.tanhCs[:0]
}
