package nn

import (
	"fmt"
	"math"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// LSTMOf is a (possibly multi-layer) LSTM over [B, T·D] inputs, returning the
// last hidden state of the top layer, [B, H]. Parameter names follow the
// PyTorch convention the paper's figures use: "<name>.weight_ih_l0",
// "<name>.weight_hh_l0", "<name>.bias_ih_l0", "<name>.bias_hh_l0", and the
// same with l1, l2, … for deeper stacks. Gate order is i, f, g, o.
//
// Gate nonlinearities evaluate in float64 for both dtypes (math.Exp/Tanh have
// no float32 form in the standard library); a float32 network rounds the
// results to its working precision, while GEMMs and elementwise state updates
// run in the working dtype.
type LSTMOf[F tensor.Float] struct {
	InDim, Hidden, T, NumLayers int
	layers                      []*lstmLayerOf[F]

	arena *tensor.Arena
	gen   uint64
	seq   []*tensor.TensorOf[F] // persistent timestep-slicing buffer
	dhSeq []*tensor.TensorOf[F] // persistent backward buffer
}

// LSTM is the float64 LSTM.
type LSTM = LSTMOf[float64]

type lstmLayerOf[F tensor.Float] struct {
	in, hidden         int
	wih, whh, bih, bhh *ParamOf[F]
	arena              *tensor.Arena
	// BPTT caches, one entry per timestep; the slice headers persist across
	// iterations (reset to length zero, capacity kept) so steady-state
	// training appends without allocating.
	xs, hPrevs, cPrevs     []*tensor.TensorOf[F]
	is, fs, gs, os, tanhCs []*tensor.TensorOf[F]
	out                    []*tensor.TensorOf[F] // persistent forward output buffer
	dxSeq                  []*tensor.TensorOf[F] // persistent bptt output buffer
	batch                  int
}

// NewLSTMOf builds an LSTM stack for any float dtype. seqLen is the fixed
// number of timesteps T.
func NewLSTMOf[F tensor.Float](name string, inDim, hidden, seqLen, numLayers int, r *rng.RNG) *LSTMOf[F] {
	if numLayers < 1 {
		panic("nn: LSTM needs at least one layer")
	}
	l := &LSTMOf[F]{InDim: inDim, Hidden: hidden, T: seqLen, NumLayers: numLayers}
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
		}
		l.layers = append(l.layers, ll)
	}
	l.Init(r)
	return l
}

// NewLSTM builds a float64 LSTM stack.
func NewLSTM(name string, inDim, hidden, seqLen, numLayers int, r *rng.RNG) *LSTM {
	return NewLSTMOf[float64](name, inDim, hidden, seqLen, numLayers, r)
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

// Params returns all stacked-layer parameters in layer order.
func (l *LSTMOf[F]) Params() []*ParamOf[F] {
	var ps []*ParamOf[F]
	for _, ll := range l.layers {
		ps = append(ps, ll.wih, ll.whh, ll.bih, ll.bhh)
	}
	return ps
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// step runs one timestep: given x [B,in], hPrev and cPrev [B,H], it returns
// h and c and (when train) caches everything needed for backward; an
// inference step releases its other seven buffers before it returns.
func (ll *lstmLayerOf[F]) step(x, hPrev, cPrev *tensor.TensorOf[F], train bool) (h, c *tensor.TensorOf[F]) {
	batch := x.Dim(0)
	hid := ll.hidden
	gates := uninitT[F](ll.arena, batch, 4*hid)
	tensor.MatMulTransB(gates, x, ll.wih.Value)
	hh := uninitT[F](ll.arena, batch, 4*hid)
	tensor.MatMulTransB(hh, hPrev, ll.whh.Value)
	gates.Add(hh)
	gd := gates.Data()
	bi, bh := ll.bih.Value.Data(), ll.bhh.Value.Data()
	for b := 0; b < batch; b++ {
		row := gd[b*4*hid : (b+1)*4*hid]
		for j := range row {
			row[j] += bi[j] + bh[j]
		}
	}
	i := uninitT[F](ll.arena, batch, hid)
	f := uninitT[F](ll.arena, batch, hid)
	g := uninitT[F](ll.arena, batch, hid)
	o := uninitT[F](ll.arena, batch, hid)
	c = uninitT[F](ll.arena, batch, hid)
	h = uninitT[F](ll.arena, batch, hid)
	tc := uninitT[F](ll.arena, batch, hid)
	id, fd, gdd, od := i.Data(), f.Data(), g.Data(), o.Data()
	cd, hd, tcd := c.Data(), h.Data(), tc.Data()
	cp := cPrev.Data()
	for b := 0; b < batch; b++ {
		row := gd[b*4*hid : (b+1)*4*hid]
		for j := 0; j < hid; j++ {
			iv := sigmoid(float64(row[j]))
			fv := sigmoid(float64(row[hid+j]))
			gv := math.Tanh(float64(row[2*hid+j]))
			ov := sigmoid(float64(row[3*hid+j]))
			cv := fv*float64(cp[b*hid+j]) + iv*gv
			tcv := math.Tanh(cv)
			idx := b*hid + j
			id[idx], fd[idx], gdd[idx], od[idx] = F(iv), F(fv), F(gv), F(ov)
			cd[idx] = F(cv)
			tcd[idx] = F(tcv)
			hd[idx] = F(ov * tcv)
		}
	}
	if train {
		ll.xs = append(ll.xs, x)
		ll.hPrevs = append(ll.hPrevs, hPrev)
		ll.cPrevs = append(ll.cPrevs, cPrev)
		ll.is = append(ll.is, i)
		ll.fs = append(ll.fs, f)
		ll.gs = append(ll.gs, g)
		ll.os = append(ll.os, o)
		ll.tanhCs = append(ll.tanhCs, tc)
	} else {
		// Only h and c outlive an inference step; the next step's
		// allocations take these over.
		for _, t := range [...]*tensor.TensorOf[F]{gates, hh, i, f, g, o, tc} {
			releaseT(ll.arena, t)
		}
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
	dhNext := allocT[F](ll.arena, batch, hid) // recurrent dL/dh flowing from t+1; zeroed: none at T
	dcNext := allocT[F](ll.arena, batch, hid) // zeroed likewise
	dgates := uninitT[F](ll.arena, batch, 4*hid)
	for t := T - 1; t >= 0; t-- {
		dh := cloneT(ll.arena, dhSeq[t])
		dh.Add(dhNext)
		id, fd, gd, od := ll.is[t].Data(), ll.fs[t].Data(), ll.gs[t].Data(), ll.os[t].Data()
		tcd := ll.tanhCs[t].Data()
		cpd := ll.cPrevs[t].Data()
		dhd := dh.Data()
		dcn := dcNext.Data()
		dgd := dgates.Data()
		dcPrev := uninitT[F](ll.arena, batch, hid)
		dcp := dcPrev.Data()
		for b := 0; b < batch; b++ {
			for j := 0; j < hid; j++ {
				idx := b*hid + j
				dhv := float64(dhd[idx])
				o := float64(od[idx])
				tc := float64(tcd[idx])
				dc := dhv*o*(1-tc*tc) + float64(dcn[idx])
				i, f, g := float64(id[idx]), float64(fd[idx]), float64(gd[idx])
				di := dc * g
				df := dc * float64(cpd[idx])
				dg := dc * i
				do := dhv * tc
				base := b * 4 * hid
				dgd[base+j] = F(di * i * (1 - i))
				dgd[base+hid+j] = F(df * f * (1 - f))
				dgd[base+2*hid+j] = F(dg * (1 - g*g))
				dgd[base+3*hid+j] = F(do * o * (1 - o))
				dcp[idx] = F(dc * f)
			}
		}
		// Parameter gradients: dWih += dgatesᵀ·x, dWhh += dgatesᵀ·hPrev.
		dWih := uninitT[F](ll.arena, 4*hid, ll.in)
		tensor.MatMulTransA(dWih, dgates, ll.xs[t])
		ll.wih.Grad.Add(dWih)
		dWhh := uninitT[F](ll.arena, 4*hid, hid)
		tensor.MatMulTransA(dWhh, dgates, ll.hPrevs[t])
		ll.whh.Grad.Add(dWhh)
		bi, bh := ll.bih.Grad.Data(), ll.bhh.Grad.Data()
		for b := 0; b < batch; b++ {
			row := dgd[b*4*hid : (b+1)*4*hid]
			for j, v := range row {
				bi[j] += v
				bh[j] += v
			}
		}
		// Input and recurrent gradients.
		dxSeq[t] = nil
		if needDx {
			dxSeq[t] = uninitT[F](ll.arena, batch, ll.in)
			tensor.MatMul(dxSeq[t], dgates, ll.wih.Value)
		}
		dhPrev := uninitT[F](ll.arena, batch, hid)
		tensor.MatMul(dhPrev, dgates, ll.whh.Value)
		dhNext = dhPrev
		dcNext = dcPrev
	}
	ll.clearCaches()
	return dxSeq
}

// clearCaches empties the BPTT caches, keeping their capacity for the next
// training Forward.
func (ll *lstmLayerOf[F]) clearCaches() {
	ll.xs, ll.hPrevs, ll.cPrevs = ll.xs[:0], ll.hPrevs[:0], ll.cPrevs[:0]
	ll.is, ll.fs = ll.is[:0], ll.fs[:0]
	ll.gs, ll.os, ll.tanhCs = ll.gs[:0], ll.os[:0], ll.tanhCs[:0]
}
