package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedca/internal/rng"
)

// The bodies internal/nn ran before ReLU, its gate, 2×2 max pooling and the
// plain SGD update moved here and got vector forms, kept as references: each
// test drives the kernel on both paths and demands the reference's bits.

// reluRef is ReLU's forward pass as the layer had it: a clamp and a stored
// comparison per element.
func reluRef[F Float](dst, src []F, mask []bool) {
	for j, v := range src {
		dst[j] = max(v, 0)
		if mask != nil {
			mask[j] = !(v <= 0)
		}
	}
}

// gateRef is gateByMask as the layer had it.
func gateRef[F Float](dst, src []F, mask []bool) {
	for i, v := range src {
		if sizeofF[F]() == 4 {
			var keep uint32
			if mask[i] {
				keep = 1
			}
			dst[i] = F(math.Float32frombits(math.Float32bits(float32(v)) & -keep))
			continue
		}
		var keep uint64
		if mask[i] {
			keep = 1
		}
		dst[i] = F(math.Float64frombits(math.Float64bits(float64(v)) & -keep))
	}
}

// pool2x2Ref is MaxPool2D's sample2x2 as the layer had it: the window
// unrolled over two input rows, one chain of strict comparisons.
func pool2x2Ref[F Float](xs, ys []F, am []int32, c, h, w int) {
	oh, ow := h/2, w/2
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			top := (ch*h + 2*oy) * w
			r0, r1 := xs[top:top+2*ow], xs[top+w:top+w+2*ow]
			out := ys[(ch*oh+oy)*ow : (ch*oh+oy+1)*ow]
			for ox := range out {
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
				if am != nil {
					am[(ch*oh+oy)*ow+ox] = int32(off)
				}
			}
		}
	}
}

// sgdRef is SGD.Step's no-momentum body as the optimizer had it, its products
// rounded where amd64 rounds them anyway.
func sgdRef[F Float](w, g []F, lr, wd float64) {
	for i := range w {
		w[i] = F(float64(w[i]) - float64(lr*(float64(g[i])+float64(wd*float64(w[i])))))
	}
}

func testReLUKernels[F Float](t *testing.T) {
	r := rng.New(41)
	sp := append(specials[F](), 0, 1, -1, F(math.SmallestNonzeroFloat32), F(-math.SmallestNonzeroFloat32))
	for n := 0; n <= 40; n++ {
		for off := 0; off < 4; off++ {
			src := append(make([]F, off), salted[F](r, n)...)[off:]
			for i := range src { // every special value in every lane, over the lengths
				if (i+n)%3 == 0 {
					src[i] = sp[(i+n/3)%len(sp)]
				}
			}
			gates := make([]bool, n)
			for i := range gates {
				gates[i] = r.Intn(2) == 0
			}
			wantY, wantMask, wantG := make([]F, n), make([]bool, n), make([]F, n)
			reluRef(wantY, src, wantMask)
			gateRef(wantG, src, gates)
			forEachKernelPath(func(path string) {
				for _, withMask := range []bool{true, false} {
					y, intact := guarded[F](n, off, -7)
					var mask []bool
					maskBuf := make([]bool, n+8)
					if withMask {
						mask = maskBuf[4 : 4+n : 4+n]
					}
					ReLU(y, src, mask)
					if i := firstRawDiff(y, wantY); i >= 0 {
						t.Fatalf("%s n=%d off=%d: ReLU(%v) = %v (%#x), the layer's loop gives %v (%#x)", path, n, off, src[i], y[i], rawBits(y[i]), wantY[i], rawBits(wantY[i]))
					}
					for i := range mask {
						if mask[i] != wantMask[i] {
							t.Fatalf("%s n=%d off=%d: mask[%d] of %v is %v", path, n, off, i, src[i], mask[i])
						}
					}
					for i, b := range maskBuf {
						if (i < 4 || i >= 4+n || !withMask) && b {
							t.Fatalf("%s n=%d off=%d: stored outside the mask at %d", path, n, off, i-4)
						}
					}
					if !intact() {
						t.Fatalf("%s n=%d off=%d: ReLU stored outside dst", path, n, off)
					}
				}
				dx, intact := guarded[F](n, off, -7)
				GateByMask(dx, src, gates)
				if i := firstRawDiff(dx, wantG); i >= 0 {
					t.Fatalf("%s n=%d off=%d: gate(%v, %v) = %v (%#x), want %v", path, n, off, src[i], gates[i], dx[i], rawBits(dx[i]), wantG[i])
				}
				if !intact() {
					t.Fatalf("%s n=%d off=%d: GateByMask stored outside dst", path, n, off)
				}
			})
		}
	}
}

// TestReLUAndGateMatchScalar: the clamp, the mask and the gate equal the
// layer's scalar loops in every bit — −0 clamps to +0, a NaN of either sign
// comes out as the compiler's max leaves it and counts as active, a gated NaN
// or infinity becomes +0 and an active one passes with its payload — at
// lengths 0–40, every alignment, with and without a mask, on both paths.
func TestReLUAndGateMatchScalar(t *testing.T) {
	t.Run("f64", testReLUKernels[float64])
	t.Run("f32", testReLUKernels[float32])
}

func testMaxPool2x2[F Float](t *testing.T) {
	r := rng.New(42)
	// A handful of values, so that most windows hold ties, both zeros,
	// infinities and NaNs (quiet and signalling, with payloads) in every
	// position.
	values := append(specials[F](), 0, 1, 1, -1, 2, 2)
	for _, sh := range []struct{ c, h, w int }{
		{6, 16, 16}, {16, 8, 8}, {1, 2, 2}, {2, 4, 4}, {1, 3, 5}, {2, 7, 9}, {1, 4, 10}, {3, 5, 17}, {1, 2, 33}, {2, 6, 24},
	} {
		oh, ow := sh.h/2, sh.w/2
		for trial := 0; trial < 10; trial++ {
			xs := make([]F, sh.c*sh.h*sh.w)
			for i := range xs {
				xs[i] = values[r.Intn(len(values))]
				if trial%2 == 1 && r.Intn(2) == 0 {
					xs[i] = F(r.Normal(0, 1))
				}
			}
			wantY, wantAm := make([]F, sh.c*oh*ow), make([]int32, sh.c*oh*ow)
			pool2x2Ref(xs, wantY, wantAm, sh.c, sh.h, sh.w)
			forEachKernelPath(func(path string) {
				for _, withAm := range []bool{true, false} {
					ys, intact := guarded[F](len(wantY), trial%4, -7)
					amBuf := make([]int32, len(wantY)+16)
					var am []int32
					if withAm {
						am = amBuf[8 : 8+len(wantY) : 8+len(wantY)]
					}
					MaxPool2x2(ys, am, xs, sh.c, sh.h, sh.w)
					if i := firstRawDiff(ys, wantY); i >= 0 {
						t.Fatalf("%s %+v: output %d is %v (%#x), the scalar chain picks %v (%#x)", path, sh, i, ys[i], rawBits(ys[i]), wantY[i], rawBits(wantY[i]))
					}
					for i := range am {
						if am[i] != wantAm[i] {
							t.Fatalf("%s %+v: argmax[%d] = %d, the scalar chain picks %d", path, sh, i, am[i], wantAm[i])
						}
					}
					for i, v := range amBuf {
						if (i < 8 || i >= 8+len(wantY) || !withAm) && v != 0 {
							t.Fatalf("%s %+v: stored outside argmax at %d", path, sh, i-8)
						}
					}
					if !intact() {
						t.Fatalf("%s %+v: stored outside the output", path, sh)
					}
				}
			})
		}
	}
}

// TestMaxPool2x2MatchesScalar: values and argmax equal the scalar chain's on
// windows full of ties, −0 and NaN, at the models' shapes and at widths with
// a scalar tail, an unreached last row or column, with and without an argmax.
func TestMaxPool2x2MatchesScalar(t *testing.T) {
	t.Run("f64", testMaxPool2x2[float64])
	t.Run("f32", testMaxPool2x2[float32])
}

func testPoolEveryPosition[F Float](t *testing.T) {
	// One special value in one window position of every lane at a time; the
	// rest of the window ties at 1, or holds a larger value after it.
	for _, sp := range append(specials[F](), 1, 3) {
		for posn := 0; posn < 4; posn++ {
			for _, rest := range []F{1, 3, F(math.Inf(-1))} {
				const h, w = 2, 16
				xs := make([]F, h*w)
				for i := range xs {
					xs[i] = rest
				}
				for ox := 0; ox < w/2; ox++ {
					xs[posn/2*w+2*ox+posn%2] = sp
				}
				wantY, wantAm := make([]F, w/2), make([]int32, w/2)
				pool2x2Ref(xs, wantY, wantAm, 1, h, w)
				forEachKernelPath(func(path string) {
					ys, am := make([]F, w/2), make([]int32, w/2)
					MaxPool2x2(ys, am, xs, 1, h, w)
					for i := range ys {
						if rawBits(ys[i]) != rawBits(wantY[i]) || am[i] != wantAm[i] {
							t.Fatalf("%s: %v at window position %d among %v: got %v at %d, the scalar chain picks %v at %d", path, sp, posn, rest, ys[i], am[i], wantY[i], wantAm[i])
						}
					}
				})
			}
		}
	}
}

// TestMaxPool2x2SpecialInEveryPosition pins the chain's rule in every lane: a
// later element wins only if strictly greater, so the first of equal maxima
// is kept and a NaN wins only from the first position.
func TestMaxPool2x2SpecialInEveryPosition(t *testing.T) {
	t.Run("f64", testPoolEveryPosition[float64])
	t.Run("f32", testPoolEveryPosition[float32])
}

func testSGDStep[F Float](t *testing.T) {
	r := rng.New(43)
	for _, hp := range []struct{ lr, wd float64 }{{0.05, 0}, {0.05, 1e-4}, {0.1, 0.3}, {1e-3, 5e-4}} {
		for n := 0; n <= 17; n++ {
			for off := 0; off < 4; off++ {
				for _, gen := range []func(*rng.RNG, int) []F{randSlice[F], salted[F]} {
					w0, g := gen(r, n), gen(r, n)
					want := append([]F(nil), w0...)
					sgdRef(want, g, hp.lr, hp.wd)
					forEachKernelPath(func(path string) {
						w, intact := guarded[F](n, off, 0)
						copy(w, w0)
						gb := append(make([]F, (off+1)%4), g...)[(off+1)%4:]
						SGDStep(w, gb, hp.lr, hp.wd)
						for i := range want {
							if !sameBits(w[i], want[i]) {
								t.Fatalf("%s lr=%v wd=%v n=%d off=%d: w[%d] = %v − lr·(%v + wd·w) = %v, the optimizer's loop gives %v", path, hp.lr, hp.wd, n, off, i, w0[i], g[i], w[i], want[i])
							}
						}
						if !intact() {
							t.Fatalf("%s n=%d off=%d: stored outside w", path, n, off)
						}
					})
				}
			}
		}
	}
}

// TestSGDStepMatchesScalar: the update equals the optimizer's loop — two
// products, a sum and a difference in float64, one rounding to the element
// type — at wd = 0 and ≠ 0, lengths 0–17, every alignment of both slices, on
// ordinary and on special values, on both paths. A fused multiply-add
// anywhere in it changes the last bit of about every second weight.
func TestSGDStepMatchesScalar(t *testing.T) {
	t.Run("f64", testSGDStep[float64])
	t.Run("f32", testSGDStep[float32])
}

func BenchmarkLayerKernels(b *testing.B) {
	r := rng.New(1)
	const n = 6 * 16 * 16
	x, y, mask := randSlice[float32](r, n), make([]float32, n), make([]bool, n)
	am := make([]int32, n/4)
	w, g := randSlice[float32](r, 61706), randSlice[float32](r, 61706)
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"relu", func() { ReLU(y, x, mask) }},
		{"gate", func() { GateByMask(y, x, mask) }},
		{"pool", func() { MaxPool2x2(y, am, x, 6, 16, 16) }},
		{"sgd", func() { SGDStep(w, g, 0.05, 1e-4) }},
	} {
		b.Run(fmt.Sprintf("f32/%s", k.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.f()
			}
		})
	}
}
