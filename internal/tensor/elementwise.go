package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// The elementwise kernels beside the GEMM: the LSTM cell forward and its
// gate gradients, and the sum of two slices, each with a body at vector width
// (elementwise_amd64.s) and a portable one here that is its definition.
//
// The cell's nonlinearities are defined by the standard library:
// 1/(1+math.Exp(-x)) and math.Tanh(x), to the last bit of every input. On
// amd64 math.Exp is a straight-line assembly routine with fused multiply-adds
// at ten fixed places when the CPU has FMA, and math.Tanh is pure Go over it,
// so four lanes can repeat both instruction for instruction; useVecMath is
// true where they do. Fused operations are right here and wrong in the GEMM
// for the same reason: a kernel rounds where its reference rounds. Whatever
// the straight line does not cover — a group of four with a lane beyond ±700
// (sigmoid) or a NaN (tanh), the tail of a row, any other machine — goes
// through math.Exp and math.Tanh themselves, so a result cannot depend on the
// path that produced it. A toolchain that changes math.Exp shows up as a
// failing property test in this package, not as a drifting checksum.
//
// The sums and the gate gradients contain no operation a lane could round
// differently (+, −, × only, never fused), so they follow useAVX2 like the
// GEMM.

// sigmoidRef and math.Tanh are the cell's nonlinearities on the portable
// path and the reference the vector ones are tested against.
func sigmoidRef(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// LSTMCell is the elementwise part of the LSTM cell's forward pass over a
// batch, after the two products. Per batch row, act arrives holding x·W_ihᵀ
// and hh holding h·W_hhᵀ (4·hid each, gate blocks i|f|g|o), bias holds
// b_ih + b_hh (4·hid) and cPrev the previous cell state (hid). It sums the
// pre-activations (x·W_ihᵀ + h·W_hhᵀ) + (b_ih + b_hh) in F, then in float64
// at either dtype takes sigmoid over i, f and o and tanh over g, c = f·c_prev
// + i·g, tanh c and h = o·tanh c, every operation rounded on its own. It
// writes the activated gates over act and c, tanh c and h (hid per row),
// each rounded once to F on store; a float32 cell computes c and h from the
// unrounded gates. act is the only buffer both read and written.
func LSTMCell[F Float](act, hh, bias, cPrev, c, tanhC, h []F, hid int) {
	n := len(c)
	if hid <= 0 || n%hid != 0 {
		panic(fmt.Sprintf("tensor: LSTMCell rows of %d in %d elements", hid, n))
	}
	rows := n / hid
	if rows == 0 {
		return
	}
	_, _, _ = act[4*n-1], hh[4*n-1], bias[4*hid-1] // the assembly checks no bounds
	_, _, _ = cPrev[n-1], tanhC[n-1], h[n-1]
	from := 0
	if useVecMath && hid >= 4 {
		from = hid &^ 3
		per, groups := from/4, rows*from/4
		// k is the group the vector body stopped in front of; the portable
		// body does it and the vector one goes on from the next.
		for k := 0; k < groups; k++ {
			lo := k / per * hid
			k += lstmCellVec(act[4*lo:], hh[4*lo:], bias, cPrev[lo:], c[lo:], tanhC[lo:], h[lo:], hid, rows-k/per, k%per)
			if k < groups {
				lo, j := k/per*hid, 4*(k%per)
				hi := lo + hid
				lstmCellGo(act[4*lo:4*hi], hh[4*lo:4*hi], bias, cPrev[lo:hi], c[lo:hi], tanhC[lo:hi], h[lo:hi], hid, j, j+4)
			}
		}
	}
	if from < hid {
		lstmCellGo(act, hh, bias, cPrev, c, tanhC, h, hid, from, hid)
	}
}

// lstmCellVec runs the vector cell from group g of the first row on and
// returns the number of groups it did.
func lstmCellVec[F Float](act, hh, bias, cPrev, c, tanhC, h []F, hid, rows, g int) int {
	if sizeofF[F]() == 4 {
		return lstmCellAVX2F32(ptr32(act), ptr32(hh), ptr32(bias), ptr32(cPrev), ptr32(c), ptr32(tanhC), ptr32(h), hid, rows, g)
	}
	return lstmCellAVX2F64(ptr64(act), ptr64(hh), ptr64(bias), ptr64(cPrev), ptr64(c), ptr64(tanhC), ptr64(h), hid, rows, g)
}

// lstmCellGo is the portable cell over columns [from, to) of every row, and
// the definition of the assembly. Each product is an explicit conversion,
// which no compiler may fuse with the sum that consumes it.
func lstmCellGo[F Float](act, hh, bias, cPrev, c, tanhC, h []F, hid, from, to int) {
	for lo := 0; lo < len(c); lo += hid {
		a, p := act[4*lo:4*lo+4*hid], hh[4*lo:4*lo+4*hid]
		for j := from; j < to; j++ {
			i := sigmoidRef(float64((a[j] + p[j]) + bias[j]))
			f := sigmoidRef(float64((a[hid+j] + p[hid+j]) + bias[hid+j]))
			g := math.Tanh(float64((a[2*hid+j] + p[2*hid+j]) + bias[2*hid+j]))
			o := sigmoidRef(float64((a[3*hid+j] + p[3*hid+j]) + bias[3*hid+j]))
			cj := float64(f*float64(cPrev[lo+j])) + float64(i*g)
			tc := math.Tanh(cj)
			a[j], a[hid+j], a[2*hid+j], a[3*hid+j] = F(i), F(f), F(g), F(o)
			c[lo+j], tanhC[lo+j], h[lo+j] = F(cj), F(tc), F(o*tc)
		}
	}
}

// ptr32 and ptr64 hand a slice's storage to the assembly of F's width; named
// ~float32/~float64 types share their underlying type's layout.
func ptr32[F Float](s []F) *float32 { return (*float32)(unsafe.Pointer(unsafe.SliceData(s))) }
func ptr64[F Float](s []F) *float64 { return (*float64)(unsafe.Pointer(unsafe.SliceData(s))) }

// addSlices sets dst[i] = a[i] + b[i]; dst may be a or b. The slices have
// equal length.
func addSlices[F Float](dst, a, b []F) {
	i := 0
	if useAVX2 && len(dst) >= 8 {
		if sizeofF[F]() == 4 {
			i = len(dst) &^ 7
			addAVX2F32(ptr32(dst), ptr32(a), ptr32(b), i)
		} else {
			i = len(dst) &^ 3
			addAVX2F64(ptr64(dst), ptr64(a), ptr64(b), i)
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// addRows adds the rows of src (rows × len(dst), row-major) to dst, row 0
// first: dst[j] is one chain of rows additions.
func addRows[F Float](dst, src []F, rows int) {
	cols := len(dst)
	j := 0
	if useAVX2 && cols >= 8 && rows > 0 {
		if sizeofF[F]() == 4 {
			j = cols &^ 7
			addRowsAVX2F32(ptr32(dst), ptr32(src), rows, cols, j)
		} else {
			j = cols &^ 3
			addRowsAVX2F64(ptr64(dst), ptr64(src), rows, cols, j)
		}
	}
	if j == cols {
		return
	}
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for jj := j; jj < cols; jj++ {
			dst[jj] += row[jj]
		}
	}
}

// LSTMGateGrad is the elementwise part of the LSTM cell's backward pass over
// a batch. Per batch row, act holds the activated gates i|f|g|o (4·hid) and
// tanhC, cPrev, dh and dcNext the row's tanh(c), previous cell state,
// gradient on h and gradient on c from the step after (hid each); it writes
// the gradient on the pre-activations to dgates (4·hid per row, same order)
// and on the previous cell state to dcPrev (hid per row). The arithmetic is
// float64 at either dtype, every product and difference rounded on its own,
// and the outputs share no storage with the inputs.
func LSTMGateGrad[F Float](dgates, dcPrev, act, tanhC, cPrev, dh, dcNext []F, hid int) {
	n := len(dcPrev)
	if hid <= 0 || n%hid != 0 {
		panic(fmt.Sprintf("tensor: LSTMGateGrad rows of %d in %d elements", hid, n))
	}
	rows := n / hid
	if rows == 0 {
		return
	}
	_, _ = dgates[4*n-1], act[4*n-1] // the assembly checks no bounds
	_, _, _, _ = tanhC[n-1], cPrev[n-1], dh[n-1], dcNext[n-1]
	from := 0
	if useAVX2 && hid >= 4 {
		from = hid &^ 3
		if sizeofF[F]() == 4 {
			lstmGateGradAVX2F32(ptr32(dgates), ptr32(dcPrev), ptr32(act), ptr32(tanhC), ptr32(cPrev), ptr32(dh), ptr32(dcNext), hid, rows)
		} else {
			lstmGateGradAVX2F64(ptr64(dgates), ptr64(dcPrev), ptr64(act), ptr64(tanhC), ptr64(cPrev), ptr64(dh), ptr64(dcNext), hid, rows)
		}
	}
	if from < hid {
		lstmGateGradGo(dgates, dcPrev, act, tanhC, cPrev, dh, dcNext, hid, from)
	}
}

// lstmGateGradGo is the portable gate gradient over columns [from, hid) of
// every row, and the definition of the assembly. Each product is an explicit
// conversion, which no compiler may fuse with the operation that consumes it.
func lstmGateGradGo[F Float](dgates, dcPrev, act, tanhC, cPrev, dh, dcNext []F, hid, from int) {
	for lo := 0; lo < len(dcPrev); lo += hid {
		a, dg := act[4*lo:4*lo+4*hid], dgates[4*lo:4*lo+4*hid]
		for j := from; j < hid; j++ {
			dhv, tc := float64(dh[lo+j]), float64(tanhC[lo+j])
			i, f, g, o := float64(a[j]), float64(a[hid+j]), float64(a[2*hid+j]), float64(a[3*hid+j])
			dc := float64(float64(dhv*o)*(1-float64(tc*tc))) + float64(dcNext[lo+j])
			di := float64(dc * g)
			df := float64(dc * float64(cPrev[lo+j]))
			dgg := float64(dc * i)
			do := float64(dhv * tc)
			dg[j] = F(float64(di*i) * (1 - i))
			dg[hid+j] = F(float64(df*f) * (1 - f))
			dg[2*hid+j] = F(dgg * (1 - float64(g*g)))
			dg[3*hid+j] = F(float64(do*o) * (1 - o))
			dcPrev[lo+j] = F(dc * f)
		}
	}
}

// The layers between the products — ReLU, its backward gate, 2×2 max pooling
// and the plain SGD update — are a load, a compare or an add, and a store per
// element; once the products run at vector width a scalar loop over them
// costs as much as the product beside it. Each has a vector body for the
// whole groups of a slice and a portable loop that finishes the slice, runs
// on every other machine and is the definition the vector body is tested
// against, special values included.

// ReLU sets dst[i] = max(src[i], 0) and, when mask is not nil, mask[i] =
// !(src[i] <= 0): a NaN stays a NaN and counts as active. dst (and mask) must
// be at least as long as src.
func ReLU[F Float](dst, src []F, mask []bool) {
	n := len(src)
	dst = dst[:n]
	if mask != nil {
		mask = mask[:n]
	}
	from := 0
	if useAVX2 {
		if sizeofF[F]() == 4 {
			from = n &^ 7
			reluAVX2F32(ptr32(dst), ptr32(src), unsafe.SliceData(mask), from)
		} else {
			from = n &^ 3
			reluAVX2F64(ptr64(dst), ptr64(src), unsafe.SliceData(mask), from)
		}
	}
	// Branch-free: on activations of random sign a branch per element is
	// mispredicted half the time.
	if mask == nil {
		for i := from; i < n; i++ {
			dst[i] = max(src[i], 0)
		}
		return
	}
	for i := from; i < n; i++ {
		v := src[i]
		dst[i] = max(v, 0)
		mask[i] = !(v <= 0)
	}
}

// GateByMask sets dst[i] = src[i] where mask[i] is set and +0 elsewhere, by
// and-ing the value's bits with an all-ones or all-zeros word: no branch to
// mispredict on a mask of random sign, and — unlike a multiply by 0 or 1 — an
// active NaN or ±Inf passes through bit for bit and a gated one becomes +0.
func GateByMask[F Float](dst, src []F, mask []bool) {
	n := len(src)
	dst, mask = dst[:n], mask[:n]
	from := 0
	if sizeofF[F]() == 4 {
		if useAVX2 {
			from = n &^ 7
			gateAVX2F32(ptr32(dst), ptr32(src), unsafe.SliceData(mask), from)
		}
		for i := from; i < n; i++ {
			var keep uint32
			if mask[i] {
				keep = 1
			}
			dst[i] = F(math.Float32frombits(math.Float32bits(float32(src[i])) & -keep))
		}
		return
	}
	if useAVX2 {
		from = n &^ 3
		gateAVX2F64(ptr64(dst), ptr64(src), unsafe.SliceData(mask), from)
	}
	for i := from; i < n; i++ {
		var keep uint64
		if mask[i] {
			keep = 1
		}
		dst[i] = F(math.Float64frombits(math.Float64bits(float64(src[i])) & -keep))
	}
}

// MaxPool2x2 pools one sample xs of c channels of h×w pixels with a 2×2
// window at stride 2 into ys (c·(h/2)·(w/2)) and, when am is not nil, the
// offset in xs of each output's winner into am. A window is reduced by one
// chain of strict comparisons — top-left, top-right, bottom-left,
// bottom-right — so the first of equal maxima wins and a NaN never displaces
// anything: it wins only from the first position, where nothing is compared
// with it. A pairwise tournament would pick another winner from a window
// that holds a NaN.
func MaxPool2x2[F Float](ys []F, am []int32, xs []F, c, h, w int) {
	oh, ow := h/2, w/2
	if oh == 0 || ow == 0 {
		return
	}
	_, _ = xs[c*h*w-1], ys[c*oh*ow-1] // the assembly checks no bounds
	if am != nil {
		_ = am[c*oh*ow-1]
	}
	from := 0
	if useAVX2 && ow >= 4 {
		from = ow &^ 3
		for ch := 0; ch < c; ch++ {
			var amc *int32
			if am != nil {
				amc = &am[ch*oh*ow]
			}
			if sizeofF[F]() == 4 {
				maxPool2x2AVX2F32(ptr32(ys[ch*oh*ow:]), amc, ptr32(xs[ch*h*w:]), oh, from/4, w, ow, ch*h*w)
			} else {
				maxPool2x2AVX2F64(ptr64(ys[ch*oh*ow:]), amc, ptr64(xs[ch*h*w:]), oh, from/4, w, ow, ch*h*w)
			}
		}
	}
	if from == ow {
		return
	}
	for r := 0; r < c*oh; r++ {
		top := (r/oh*h + 2*(r%oh)) * w
		r0, r1 := xs[top:top+2*ow], xs[top+w:top+w+2*ow]
		out := ys[r*ow : (r+1)*ow]
		var win []int32
		if am != nil {
			win = am[r*ow : (r+1)*ow]
		}
		for ox := from; ox < ow; ox++ {
			best, off := r0[2*ox], top+2*ox
			if v := r0[2*ox+1]; v > best {
				best, off = v, top+2*ox+1
			}
			if v := r1[2*ox]; v > best {
				best, off = v, top+w+2*ox
			}
			if v := r1[2*ox+1]; v > best {
				best, off = v, top+w+2*ox+1
			}
			out[ox] = best
			if win != nil {
				win[ox] = int32(off)
			}
		}
	}
}

// SGDStep applies w[i] −= lr·(g[i] + wd·w[i]) in float64 whatever F is,
// rounding each updated weight once to F on store. Both products are
// explicit conversions, which no compiler may fuse with the sum and the
// difference that consume them: the update is the same on every machine.
func SGDStep[F Float](w, g []F, lr, wd float64) {
	n := len(w)
	g = g[:n]
	from := 0
	if useAVX2 {
		from = n &^ 3
		if sizeofF[F]() == 4 {
			sgdStepAVX2F32(ptr32(w), ptr32(g), from, lr, wd)
		} else {
			sgdStepAVX2F64(ptr64(w), ptr64(g), from, lr, wd)
		}
	}
	for i := from; i < n; i++ {
		wi := float64(w[i])
		w[i] = F(wi - float64(lr*(float64(g[i])+float64(wd*wi))))
	}
}
