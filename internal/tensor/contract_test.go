package tensor

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"fedca/internal/rng"
)

// The kernel contract. Every kernel of this package registers once in
// kernels — its entry point, its reference and the shapes to call it at — and
// one harness holds it to the reference:
//
//   - on both paths: useAVX2 and useVecMath off, then on where the CPU has
//     them (from CPUID, not from the switches, so a kernel that stopped
//     agreeing fails instead of switching itself off);
//   - on ordinary values, one trial per element alignment within a vector,
//     and on every special value (±0, ±Inf, NaN payloads, subnormals,
//     ±MaxFloat, plus the kernel's own edges) at every position among
//     ordinary neighbours: every lane, window position and tap;
//   - with every buffer between guard words, its inputs left untouched;
//   - at the kernel's shapes: lengths 0 to 2 × vector width + 1, tiles and
//     panels ±1, convolution geometries across stride, pad, kernel and width.
//
// A reference is either a textbook loop in this file (refGemm, packedRef,
// im2colRef, col2imRef) or, where the portable body is the kernel's
// definition, that body: ref nil runs the kernel with both switches off.
// The tests at the end of the file are the entries: each checks a set of
// kernels on a value class.

// Value classes a contract is checked on.
const (
	ordinary = 1 << iota
	special
)

// kernel is one registry entry.
type kernel[F Float] struct {
	shapes func() [][]int                // the shapes it is called at
	sizes  func(s []int) (in, out []int) // buffer lengths at shape s
	run    func(c *call[F])              // the entry point under test
	ref    func(c *call[F])              // the reference; nil: run on the portable path
	accum  bool                          // outputs enter holding drawn values, which the kernel updates
	anyNaN bool                          // arithmetic: a NaN matches any NaN, not only its own payload
	draw   func(r *rng.RNG) F            // ordinary values; nil: N(0, 1)
	extra  []F                           // special values beyond specials
}

// call is one invocation: the shape, the buffers, the alignment of the
// kernel's side and the checks an adapter adds.
type call[F Float] struct {
	s       []int
	in, out [][]F
	off     int
	guards  []func() bool
	failed  string
}

// scratch returns a guarded buffer of n elements filled with fill, at the
// call's alignment.
func (c *call[F]) scratch(n int, fill F) []F {
	s, intact := guarded(n, c.off, fill)
	c.guards = append(c.guards, intact)
	return s
}

func (c *call[F]) check(ok bool, what string) {
	if !ok && c.failed == "" {
		c.failed = what
	}
}

const guardWords = 16 // one float32 vector pair, two float64 ones

// guarded returns n elements filled with fill, off elements into a buffer
// with guard words on both sides, and a check that the guards are intact.
func guarded[F Float](n, off int, fill F) (s []F, intact func() bool) {
	buf := make([]F, guardWords+off+n+guardWords)
	for i := range buf {
		buf[i] = guard
	}
	lo := guardWords + off
	s = buf[lo : lo+n : lo+n]
	for i := range s {
		s[i] = fill
	}
	return s, func() bool {
		for i, v := range buf {
			if (i < lo || i >= lo+n) && v != guard {
				return false
			}
		}
		return true
	}
}

const guard = -12345.5

// newCall lays out one call: buffer j (inputs, then outputs) at alignment
// off + j within a vector; inputs, and accumulating outputs, take vals.
func newCall[F Float](s, inN, outN []int, vals [][]F, accum bool, off int) *call[F] {
	c := &call[F]{s: s, off: off}
	for j, n := range append(append([]int(nil), inN...), outN...) {
		b, intact := guarded[F](n, (off+j)%vecWidth[F](), -7)
		c.guards = append(c.guards, intact)
		if j < len(inN) || accum {
			copy(b, vals[j])
		}
		if j < len(inN) {
			c.in = append(c.in, b)
		} else {
			c.out = append(c.out, b)
		}
	}
	return c
}

// vecWidth is the number of F in a 32-byte vector.
func vecWidth[F Float]() int { return 32 / sizeofF[F]() }

// forEachKernelPath runs body on the portable kernels and then, where the CPU
// has them, on the vector ones.
func forEachKernelPath(body func(path string)) {
	withPath(false, false, func() { body("portable") })
	if detectAVX2() {
		withPath(true, detectFMA(), func() { body("vector") })
	}
}

// withPath runs f with the package's two dispatch switches set as given,
// which nothing but tests ever writes, and restores them.
func withPath(avx2, vecMath bool, f func()) {
	saved, savedVec := useAVX2, useVecMath
	defer func() { useAVX2, useVecMath = saved, savedVec }()
	useAVX2, useVecMath = avx2, vecMath
	f()
}

// contract checks the named kernels on the given value classes at both
// dtypes, in subtests "f64" and "f32" ("…/specials" for the special class
// when the ordinary one runs too). shapes nil means each kernel's own.
func contract(t *testing.T, classes int, shapes func() [][]int, names ...string) {
	for _, dt := range []string{"f64", "f32"} {
		for _, class := range []int{ordinary, special} {
			if classes&class == 0 {
				continue
			}
			name := dt
			if class == special && classes&ordinary != 0 {
				name += "/specials"
			}
			t.Run(name, func(t *testing.T) {
				if dt == "f64" {
					checkKernels[float64](t, class, shapes, names...)
				} else {
					checkKernels[float32](t, class, shapes, names...)
				}
			})
		}
	}
}

// checkKernels checks the named kernels at one dtype.
func checkKernels[F Float](t *testing.T, classes int, shapes func() [][]int, names ...string) {
	t.Helper()
	reg := kernels[F]()
	for _, name := range names {
		k, ok := reg[name]
		if !ok {
			t.Fatalf("no kernel %q in the registry at this dtype", name)
		}
		if shapes != nil {
			k.shapes = shapes
		}
		for _, class := range []int{ordinary, special} {
			if classes&class != 0 {
				checkKernel(t, name, k, class)
			}
		}
	}
}

func checkKernel[F Float](t *testing.T, name string, k kernel[F], class int) {
	t.Helper()
	r := rng.New(41)
	sp := append(specials[F](), k.extra...)
	w := vecWidth[F]()
	trials := w
	if class == special {
		trials = 2 * len(sp) // each position is special in every other trial, and sees every special
	}
	draw := k.draw
	if draw == nil {
		draw = func(r *rng.RNG) F { return F(r.Normal(0, 1)) }
	}
	for si, s := range k.shapes() {
		inN, outN := k.sizes(s)
		drawn := inN
		if k.accum {
			drawn = append(append([]int(nil), inN...), outN...)
		}
		for trial := 0; trial < trials; trial++ {
			vals := make([][]F, len(drawn))
			for j, n := range drawn {
				vals[j] = make([]F, n)
				for i := range vals[j] {
					if class == special && (i+trial)%2 == 0 {
						vals[j][i] = sp[((i+trial)/2+3*j)%len(sp)]
					} else {
						vals[j][i] = draw(r)
					}
				}
			}
			want := newCall(s, inN, outN, vals, k.accum, 0)
			if k.ref != nil {
				k.ref(want)
			} else {
				withPath(false, false, func() { k.run(want) })
			}
			off := (si + trial) % w
			forEachKernelPath(func(path string) {
				got := newCall(s, inN, outN, vals, k.accum, off)
				k.run(got)
				where := fmt.Sprintf("%s on the %s path, shape %v, trial %d, alignment %d", name, path, s, trial, off)
				for j := range want.out {
					if i := firstDiff(got.out[j], want.out[j], k.anyNaN); i >= 0 {
						t.Fatalf("%s: output %d [%d] = %v (%#x), want %v (%#x)", where, j, i,
							got.out[j][i], rawBits(got.out[j][i]), want.out[j][i], rawBits(want.out[j][i]))
					}
				}
				for j := range inN {
					if i := firstDiff(got.in[j], vals[j], false); i >= 0 {
						t.Fatalf("%s: input %d [%d] was written", where, j, i)
					}
				}
				for _, intact := range got.guards {
					if !intact() {
						t.Fatalf("%s: stored outside a buffer", where)
					}
				}
				if f := want.failed + got.failed; f != "" {
					t.Fatalf("%s: %s", where, f)
				}
			})
		}
	}
}

// firstDiff returns the first index at which a and b differ in their raw
// bits (with anyNaN, two NaNs of any payload agree), or -1.
func firstDiff[F Float](a, b []F, anyNaN bool) int {
	for i := range a {
		if rawBits(a[i]) != rawBits(b[i]) && !(anyNaN && a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// rawBits is the element's own bit pattern: a move must keep a NaN's payload
// and its signalling bit, which a conversion to float64 would not.
func rawBits[F Float](v F) uint64 {
	if sizeofF[F]() == 4 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// specials are both zeros, both infinities, quiet and signalling NaNs of
// either sign with a payload, the smallest subnormal of either sign, the
// largest subnormal and ±MaxFloat.
func specials[F Float]() []F {
	var out []F
	if sizeofF[F]() == 4 {
		for _, b := range []uint32{0x80000000, 0, 0x7f800000, 0xff800000, 0x7fc00001, 0xffc00123, 0x7fa00001, 0xffa00002,
			1, 0x80000001, 0x007fffff, 0x7f7fffff, 0xff7fffff} {
			out = append(out, F(math.Float32frombits(b)))
		}
		return out
	}
	for _, b := range []uint64{0x8000000000000000, 0, 0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000001,
		0xfff8000000000123, 0x7ff4000000000001, 0xfff4000000000002, 1, 0x8000000000000001, 0x000fffffffffffff,
		0x7fefffffffffffff, 0xffefffffffffffff} {
		out = append(out, F(math.Float64frombits(b)))
	}
	return out
}

// vecMathEdges are where the vector sigmoid and tanh change branch or bail
// out, each with its neighbours: tanh's 0.625 and 0.5·MAXLOG, sigmoid's ±700,
// exp's ln2 multiples, overflow and underflow, and where 1+e rounds to 1.
func vecMathEdges() []float64 {
	const maxLog = 8.8029691931113054295988e+01
	out := []float64{709.78, -709.78, 709.7827128933841, -745.2, 745.2, 1e300, -1e300, 1e-300, 1e-160, -1e-160,
		math.Float64frombits(0x0010000000000000), 0.5, -0.5, 1, -1, 22, -22, 36.7, -36.8}
	for _, x := range []float64{0.625, 0.5 * maxLog, 700, 0.5 * math.Ln2, 1.5 * math.Ln2, 88, 350} {
		for _, v := range []float64{x, -x} {
			out = append(out, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
		}
	}
	return out
}

// cross returns every combination of one value from each list.
func cross(lists ...[]int) [][]int {
	out := [][]int{nil}
	for _, l := range lists {
		var next [][]int
		for _, prefix := range out {
			for _, v := range l {
				next = append(next, append(append([]int(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

func span(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// refGemm is the GEMM's definition on raw operands: c[i][j] = Σ_p
// a[i·ars + p·aps] · b[p][j], products rounded, then added in ascending p
// from +0. The explicit conversion keeps any compiler from fusing them; CI
// looks for its own symbol in the arm64 test binary to check that, hence
// noinline.
//
//go:noinline
func refGemm[F Float](c, a []F, ars, aps int, b []F, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s F
			for p := 0; p < k; p++ {
				s += F(a[i*ars+p*aps] * b[p*n+j])
			}
			c[i*n+j] = s
		}
	}
}

// refProduct is refGemm for A stored m×k (k×m with transA) and B stored k×n
// (n×k with transB).
func refProduct[F Float](c, a, b []F, m, k, n int, transA, transB bool) {
	ars, aps := k, 1
	if transA {
		ars, aps = 1, m
	}
	if transB {
		b = transposeOf(b, n, k)
	}
	refGemm(c, a, ars, aps, b, m, k, n)
}

// packedRef lays a row-major k×n matrix out in panels by the definition of
// the layout: packed[pj·k·NR + p·NR + jj] = B[p][pj·NR + jj], zero past n.
func packedRef[F Float](b []F, k, n int) []F {
	nr := gemmNROf[F]()
	out := make([]F, packLen[F](k, n))
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			out[j/nr*k*nr+p*nr+j%nr] = b[p*n+j]
		}
	}
	return out
}

func transposeOf[F Float](a []F, rows, cols int) []F {
	out := make([]F, len(a))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = a[i*cols+j]
		}
	}
	return out
}

// geomShape and geomOf carry a convolution geometry as a shape.
func geomShape(g ConvGeom) []int { return []int{g.InC, g.InH, g.InW, g.KH, g.KW, g.Stride, g.Pad} }
func geomOf(s []int) ConvGeom    { return NewConvGeom(s[0], s[1], s[2], s[3], s[4], s[5], s[6]) }

// sweepGeoms crosses stride 1/2, pad 0/1/2, K 1/3/5 and output-row widths
// below, at and across both panel widths (and widths neither divides), with
// 1–6 channels.
func sweepGeoms() [][]int {
	var out [][]int
	i := 0
	for _, stride := range []int{1, 2} {
		for _, pad := range []int{0, 1, 2} {
			for _, k := range []int{1, 3, 5} {
				for _, w := range []int{1, 3, 4, 8, 12, 16, 20, 33} {
					i++
					h := []int{4, 8, 7, 16}[i%4]
					if h+2*pad >= k && w+2*pad >= k {
						out = append(out, geomShape(NewConvGeom(1+i%6, h, w, k, k, stride, pad)))
					}
				}
			}
		}
	}
	return out
}

// modelGeoms are the geometries the models issue, ragged ones and 60 random
// ones (see im2colGeoms and randomGeoms).
func modelGeoms() [][]int {
	var out [][]int
	for _, g := range append(im2colGeoms(), randomGeoms(rng.New(21), 60)...) {
		out = append(out, geomShape(g))
	}
	return out
}

// aux hands f a slice of the flags or offsets a kernel writes besides its
// values — between guard elements of value fill, or nil when use is false —
// and stores all of it, guards included, into out through val.
func aux[T any, F Float](out []F, use bool, fill T, val func(T) F, f func([]T)) {
	b := make([]T, len(out))
	for i := range b {
		b[i] = fill
	}
	var s []T
	if use {
		s = b[guardWords : len(b)-guardWords : len(b)-guardWords]
	}
	f(s)
	for i, v := range b {
		out[i] = val(v)
	}
}

func flag[F Float](v bool) F {
	if v {
		return 1
	}
	return 0
}

func offset[F Float](v int32) F { return F(v) }

func f64s[F Float](s []F) []float64 { return unsafe.Slice(ptr64(s), len(s)) }

// kernels is the registry: kernel name → its entry at dtype F. Kernels that
// keep an operand between calls get a fresh one per call of kernels.
func kernels[F Float]() map[string]kernel[F] {
	nr, w := gemmNROf[F](), vecWidth[F]()
	lengths := span(0, 2*w+1)
	mnk := func(s []int) (int, int, int) { return s[0], s[1], s[2] }
	gemm := kernel[F]{
		// m around the 4-row tile, k from 0, n around the panel; A read by
		// rows (NN, NT) or, stored k×m, by columns (TN).
		shapes: func() [][]int {
			return cross([]int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13}, []int{0, 1, 2, 3, 5, 17}, []int{0, 1, nr - 1, nr, nr + 1, 2*nr - 1, 2*nr + 3}, []int{0, 1})
		},
		sizes: func(s []int) ([]int, []int) { m, k, n := mnk(s); return []int{m * k, k * n}, []int{m * n} },
		run: func(c *call[F]) {
			m, k, n := mnk(c.s)
			packed := c.scratch(packLen[F](k, n), -7)
			packPanels(packed, c.in[1], k, n)
			ars, aps := k, 1
			if c.s[3] == 1 {
				ars, aps = 1, m
			}
			gemmPacked(c.out[0], c.in[0], ars, aps, packed, m, k, n)
		},
		ref: func(c *call[F]) {
			m, k, n := mnk(c.s)
			refProduct(c.out[0], c.in[0], c.in[1], m, k, n, c.s[3] == 1, false)
		},
		anyNaN: true,
	}
	// Pack and the transposing pack, around the 4- and 8-wide register
	// transposes and the panel width.
	packShapes := func() [][]int {
		return cross([]int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33}, []int{1, 7, 8, 9, nr - 1, nr, nr + 1, nr + 8, 2*nr + 3, 75})
	}
	pack := func(trans bool) kernel[F] {
		return kernel[F]{
			shapes: packShapes,
			sizes:  func(s []int) ([]int, []int) { return []int{s[0] * s[1]}, []int{packLen[F](s[0], s[1])} },
			run: func(c *call[F]) {
				if trans {
					packPanelsT(c.out[0], c.in[0], c.s[0], c.s[1])
				} else {
					packPanels(c.out[0], c.in[0], c.s[0], c.s[1])
				}
			},
			ref: func(c *call[F]) {
				b := c.in[0]
				if trans {
					b = transposeOf(b, c.s[1], c.s[0])
				}
				copy(c.out[0], packedRef(b, c.s[0], c.s[1]))
			},
		}
	}
	// The public products: NN, TN, NT (form 0, 1, 2), and MatMulPacked over
	// Pack and PackTrans (form 0, 1) into panels full of stale values.
	products := func(trans [][2]bool, run func(c *call[F], m, k, n int)) kernel[F] {
		return kernel[F]{
			shapes: func() [][]int {
				return cross([]int{1, 3, 4, 5, 9}, []int{1, 2, 5, 17}, []int{1, nr - 1, nr, nr + 1, 2*nr + 3}, span(0, len(trans)-1))
			},
			sizes: gemm.sizes,
			run:   func(c *call[F]) { m, k, n := mnk(c.s); run(c, m, k, n) },
			ref: func(c *call[F]) {
				m, k, n := mnk(c.s)
				refProduct(c.out[0], c.in[0], c.in[1], m, k, n, trans[c.s[3]][0], trans[c.s[3]][1])
			},
			anyNaN: true,
		}
	}
	matMul := products([][2]bool{{false, false}, {true, false}, {false, true}}, func(c *call[F], m, k, n int) {
		dst := fromSlice(c.out[0], m, n)
		switch c.s[3] {
		case 0:
			MatMul(dst, fromSlice(c.in[0], m, k), fromSlice(c.in[1], k, n))
		case 1:
			MatMulTransA(dst, fromSlice(c.in[0], k, m), fromSlice(c.in[1], k, n))
		default:
			MatMulTransB(dst, fromSlice(c.in[0], m, k), fromSlice(c.in[1], n, k))
		}
	})
	matMulPacked := products([][2]bool{{false, false}, {false, true}}, func(c *call[F], m, k, n int) {
		pb := &PackedBOf[F]{data: c.scratch(packLen[F](k, n), -7), k: k, n: n}
		if c.s[3] == 0 {
			pb.Pack(fromSlice(c.in[1], k, n))
		} else {
			pb.PackTrans(fromSlice(c.in[1], n, k))
		}
		MatMulPacked(fromSlice(c.out[0], m, n), fromSlice(c.in[0], m, k), pb)
	})
	// The two im2col writers share one operand across calls; its padded
	// image P is guarded, kept while the geometry stays — so each image
	// overwrites the last one's interior — and its border must stay zero.
	writer := func(fwd bool) kernel[F] {
		pb := &PackedBOf[F]{}
		var pIntact func() bool
		dims := func(g ConvGeom) (k, n int) {
			if fwd {
				return g.ColCols(), g.ColRows()
			}
			return g.ColRows(), g.ColCols()
		}
		return kernel[F]{
			shapes: sweepGeoms,
			sizes: func(s []int) ([]int, []int) {
				g := geomOf(s)
				k, n := dims(g)
				return []int{g.InC * g.InH * g.InW}, []int{packLen[F](k, n)}
			},
			run: func(c *call[F]) {
				g := geomOf(c.s)
				if pb.img.plan == nil || pb.img.geom != g {
					pl := planOf(g)
					p, intact := guarded[F]((g.InC+1)*pl.hp*pl.wp, c.off, 0)
					pb.img, pIntact = paddedImage[F]{geom: g, plan: pl, p: p}, intact
				}
				pb.data = c.out[0]
				pb.k, pb.n = dims(g)
				if fwd {
					Im2ColOf(g, c.in[0], pb)
				} else {
					Im2ColPackedOf(g, c.in[0], pb)
				}
				c.guards = append(c.guards, pIntact)
				c.check(borderIsZero(g, pb.img.plan, pb.img.p), "the padding of P is no longer zero")
			},
			ref: func(c *call[F]) {
				g := geomOf(c.s)
				pos, patch := g.ColRows(), g.ColCols()
				col := make([]F, pos*patch)
				im2colRef(g, c.in[0], col)
				if fwd {
					col = transposeOf(col, pos, patch)
				}
				k, n := dims(g)
				copy(c.out[0], packedRef(col, k, n))
			},
		}
	}
	imgSize := func(g ConvGeom) int { return g.InC * g.InH * g.InW }
	var edges []F
	for _, v := range vecMathEdges() {
		edges = append(edges, F(v))
	}
	m := map[string]kernel[F]{
		"gemm":         gemm,
		"packPanels":   pack(false),
		"packPanelsT":  pack(true),
		"MatMul":       matMul,
		"MatMulPacked": matMulPacked,

		"Im2ColOf":       writer(true),
		"Im2ColPackedOf": writer(false),
		// dcolᵀ into an image that already holds values: through the pooled
		// scratch, which carries another geometry's contents, or straight into
		// a guarded padded image full of NaN.
		"Col2ImOf": {
			shapes: sweepGeoms,
			sizes: func(s []int) ([]int, []int) {
				g := geomOf(s)
				return []int{g.ColRows() * g.ColCols()}, []int{imgSize(g)}
			},
			run: func(c *call[F]) {
				g := geomOf(c.s)
				if c.off%2 == 0 {
					Col2ImOf(g, c.in[0], c.out[0])
					return
				}
				pl := planOf(g)
				col2imPadded(g, pl, c.in[0], c.out[0], c.scratch(g.InC*pl.hp*pl.wp, F(math.NaN())))
			},
			ref: func(c *call[F]) {
				g := geomOf(c.s)
				col2imRef(g, transposeOf(c.in[0], g.ColCols(), g.ColRows()), c.out[0])
			},
			accum:  true,
			anyNaN: true,
		},
		// cols × rows × planes runs between strides that leave gaps.
		"movePlanes": {
			shapes: func() [][]int { return cross([]int{1, 2, 3, 4, 5, 8, 12, 16, 20, 33}, []int{1, 3}, []int{1, 2, 3}) },
			sizes: func(s []int) ([]int, []int) {
				cols, rows, planes := s[0], s[1], s[2]
				return []int{planes * (rows*(cols+1) + 1)}, []int{planes * (rows + 2) * (cols + 4)}
			},
			run: func(c *call[F]) {
				cols, rows, planes := c.s[0], c.s[1], c.s[2]
				movePlanes(c.out[0], cols+4, (rows+2)*(cols+4), c.in[0], cols+1, rows*(cols+1)+1, planes, rows, cols)
			},
			accum: true,
		},

		// Into a third slice, or in place.
		"addSlices": {
			shapes: func() [][]int { return cross(lengths, []int{0, 1}) },
			sizes:  func(s []int) ([]int, []int) { return []int{s[0], s[0]}, []int{s[0]} },
			run: func(c *call[F]) {
				a := c.in[0]
				if c.s[1] == 1 {
					a = c.out[0]
					copy(a, c.in[0])
				}
				addSlices(c.out[0], a, c.in[1])
			},
			anyNaN: true,
		},
		"addRows": {
			shapes: func() [][]int { return cross(lengths, []int{0, 1, 2, 5}) }, // cols, rows
			sizes:  func(s []int) ([]int, []int) { return []int{s[0] * s[1]}, []int{s[0]} },
			run:    func(c *call[F]) { addRows(c.out[0], c.in[0], c.s[1]) },
			accum:  true,
			anyNaN: true,
		},
		"LSTMGateGrad": {
			shapes: func() [][]int { return cross(span(1, 2*w+1), []int{1, 2, 5}) }, // hidden, batch
			sizes: func(s []int) ([]int, []int) {
				n := s[0] * s[1]
				return []int{4 * n, n, n, n, n}, []int{4 * n, n}
			},
			run: func(c *call[F]) {
				LSTMGateGrad(c.out[0], c.out[1], c.in[0], c.in[1], c.in[2], c.in[3], c.in[4], c.s[0])
			},
			anyNaN: true,
		},
		// act is read and written: it enters as a copy of input 0. The bias
		// row is followed by as many drawn values, not by the guard words: a
		// read past it would find a value beyond ±700 there, and the group
		// would go to the portable body and come out right. The special
		// values include the vector cell's own edges — sigmoid's ±700, tanh's
		// 0.625 and 0.5·MAXLOG — so that a row holds groups the vector body
		// serves and groups it leaves to the portable one.
		"LSTMCell": {
			shapes: func() [][]int { return cross(span(1, 2*w+1), []int{1, 2, 5}) }, // hidden, batch
			sizes: func(s []int) ([]int, []int) {
				n := s[0] * s[1]
				return []int{4 * n, 4 * n, 8 * s[0], n}, []int{4 * n, n, n, n}
			},
			run: func(c *call[F]) {
				copy(c.out[0], c.in[0])
				LSTMCell(c.out[0], c.in[1], c.in[2][:4*c.s[0]], c.in[3], c.out[1], c.out[2], c.out[3], c.s[0])
			},
			extra: edges,
		},
		// With a mask (s[1] = 1) and without.
		"ReLU": {
			shapes: func() [][]int { return cross(lengths, []int{0, 1}) },
			sizes:  func(s []int) ([]int, []int) { return []int{s[0]}, []int{s[0], s[0] + 2*guardWords} },
			run: func(c *call[F]) {
				aux(c.out[1], c.s[1] == 1, true, flag[F], func(mask []bool) { ReLU(c.out[0], c.in[0], mask) })
			},
		},
		// The gate is input 1's positive elements.
		"GateByMask": {
			shapes: func() [][]int { return cross(lengths) },
			sizes:  func(s []int) ([]int, []int) { return []int{s[0], s[0]}, []int{s[0]} },
			run: func(c *call[F]) {
				mask := make([]bool, c.s[0])
				for i, v := range c.in[1] {
					mask[i] = v > 0
				}
				GateByMask(c.out[0], c.in[0], mask)
			},
		},
		// c × h × w at the models' shapes and at widths with a scalar tail,
		// an unreached last row or column, with (s[3] = 1) and without an
		// argmax; values with many ties, ±0 among them.
		"MaxPool2x2": {
			shapes: func() [][]int {
				var out [][]int
				for _, s := range [][]int{{6, 16, 16}, {16, 8, 8}, {1, 2, 2}, {2, 4, 4}, {1, 3, 5}, {2, 7, 9}, {1, 4, 10}, {3, 5, 17}, {1, 2, 33}, {2, 6, 24}} {
					out = append(out, append(s, 0), append(s[:3:3], 1))
				}
				return out
			},
			sizes: func(s []int) ([]int, []int) {
				n := s[0] * (s[1] / 2) * (s[2] / 2)
				return []int{s[0] * s[1] * s[2]}, []int{n, n + 2*guardWords}
			},
			run: func(c *call[F]) {
				aux(c.out[1], c.s[3] == 1, -7, offset[F], func(am []int32) { MaxPool2x2(c.out[0], am, c.in[0], c.s[0], c.s[1], c.s[2]) })
			},
			draw: func(r *rng.RNG) F {
				if v := r.Intn(10); v < 7 {
					return []F{0, 1, 1, -1, 2, 2, F(math.Copysign(0, -1))}[v]
				}
				return F(r.Normal(0, 1))
			},
		},
		// At wd = 0 and ≠ 0.
		"SGDStep": {
			shapes: func() [][]int { return cross(lengths, []int{0, 1, 2, 3}) },
			sizes:  func(s []int) ([]int, []int) { return []int{s[0]}, []int{s[0]} },
			run: func(c *call[F]) {
				hp := [][2]float64{{0.05, 0}, {0.05, 1e-4}, {0.1, 0.3}, {1e-3, 5e-4}}[c.s[1]]
				SGDStep(c.out[0], c.in[0], hp[0], hp[1])
			},
			accum:  true,
			anyNaN: true,
		},
	}
	if sizeofF[F]() == 8 {
		// Separate slices, or in place.
		vecMath := func(f func(dst, src []float64)) kernel[F] {
			return kernel[F]{
				shapes: func() [][]int { return cross(lengths, []int{0, 1}) },
				sizes:  func(s []int) ([]int, []int) { return []int{s[0]}, []int{s[0]} },
				run: func(c *call[F]) {
					src := c.in[0]
					if c.s[1] == 1 {
						src = c.out[0]
						copy(src, c.in[0])
					}
					f(f64s(c.out[0]), f64s(src))
				},
				extra: edges,
			}
		}
		m["sigmoid"], m["tanh"] = vecMath(sigmoid), vecMath(tanh)
	}
	return m
}

// The entries. Several keep the name of the test their kernel had before the
// harness, so that a test's name means the same check from one version of
// the suite to the next.

// TestKernelPathsBitIdentical: the GEMM driver against the ascending-k
// definition, on both walks of A, ragged m, n and k from 0.
func TestKernelPathsBitIdentical(t *testing.T) { contract(t, ordinary, nil, "gemm") }

// TestKernelPathsNaNInf: the same with ±0, ±Inf and NaN everywhere — no path
// may skip a zero (0×Inf is NaN) or flush anything.
func TestKernelPathsNaNInf(t *testing.T) { contract(t, special, nil, "gemm") }

// TestPackPathsMatchDefinition: both packs build the panel layout, zero past
// n, over stale contents.
func TestPackPathsMatchDefinition(t *testing.T) {
	contract(t, ordinary|special, nil, "packPanels", "packPanelsT")
}

// The public products, one dtype each.
func TestBlockedBitIdenticalToRef(t *testing.T) {
	checkKernels[float64](t, ordinary, nil, "MatMul")
}
func TestBlockedF32BitIdenticalToRef(t *testing.T) {
	checkKernels[float32](t, ordinary, nil, "MatMul")
}
func TestGemmNaNInfNotMasked(t *testing.T) { checkKernels[float64](t, special, nil, "MatMul") }
func TestGemmF32NaNInfNotMasked(t *testing.T) {
	checkKernels[float32](t, special, nil, "MatMul")
}
func TestMatMulPackedMatchesMatMul(t *testing.T) {
	checkKernels[float64](t, ordinary|special, nil, "MatMulPacked")
}
func TestMatMulPackedF32MatchesMatMul(t *testing.T) {
	checkKernels[float32](t, ordinary|special, nil, "MatMulPacked")
}

// TestIm2ColCol2ImMatchReference: the writers and Col2Im against the
// textbook loops at the model and random geometries.
func TestIm2ColCol2ImMatchReference(t *testing.T) {
	contract(t, ordinary, modelGeoms, "Im2ColOf", "Im2ColPackedOf", "Col2ImOf")
}

// TestIm2ColPackedMatchesIm2ColPlusPack: the dW writer is the textbook
// im2col followed by the pack, special values included, at the model and
// random geometries; one dtype each.
func TestIm2ColPackedMatchesIm2ColPlusPack(t *testing.T) {
	checkKernels[float64](t, special, modelGeoms, "Im2ColPackedOf")
}
func TestIm2ColPackedF32MatchesIm2ColPlusPack(t *testing.T) {
	checkKernels[float32](t, special, modelGeoms, "Im2ColPackedOf")
}

// TestPaddedWritersMatchRunBased: both writers on the padded image against
// the textbook im2col over the stride × pad × kernel × width sweep.
func TestPaddedWritersMatchRunBased(t *testing.T) {
	contract(t, ordinary, nil, "Im2ColOf", "Im2ColPackedOf")
}

// TestPaddedWritersSpecialsAtCorners: the same with every special value at
// every pixel — the corners, whose taps reach furthest into the padding,
// among them.
func TestPaddedWritersSpecialsAtCorners(t *testing.T) {
	contract(t, special, nil, "Im2ColOf", "Im2ColPackedOf")
}

// TestCol2ImPaddedMatchesClipped: adding every tap's whole block into a
// padded image and dropping the border gives each pixel the textbook loop's
// addends in its order.
func TestCol2ImPaddedMatchesClipped(t *testing.T) {
	contract(t, ordinary|special, nil, "Col2ImOf")
}

func TestMovePlanesMatchesCopy(t *testing.T) {
	contract(t, ordinary|special, nil, "movePlanes")
}

// TestVecMathShapes and TestVecMathEdges: the vector sigmoid and tanh equal
// 1/(1+math.Exp(-x)) and math.Tanh in all 64 bits, at every length and
// alignment, separate and in place, and with every edge in every lane.
func TestVecMathShapes(t *testing.T) { checkKernels[float64](t, ordinary, nil, "sigmoid", "tanh") }
func TestVecMathEdges(t *testing.T)  { checkKernels[float64](t, special, nil, "sigmoid", "tanh") }

func TestAddSlicesMatchesScalar(t *testing.T) {
	contract(t, ordinary|special, nil, "addSlices")
}
func TestAddRowsMatchesScalar(t *testing.T) { contract(t, ordinary|special, nil, "addRows") }
func TestLSTMGateGradMatchesScalar(t *testing.T) {
	contract(t, ordinary|special, nil, "LSTMGateGrad")
}

// TestLSTMCellMatchesScalar: the cell forward at every hidden size up to two
// vectors and one, a single row among them. A group of four the vector body
// cannot serve — a sigmoid lane beyond ±700, a NaN before either tanh — goes
// to the portable body, and the vector body resumes at the next group.
func TestLSTMCellMatchesScalar(t *testing.T) {
	contract(t, ordinary|special, nil, "LSTMCell")
}

// TestReLUAndGateMatchScalar: −0 clamps to +0, a NaN comes out as the
// compiler's max leaves it and counts as active, a gated NaN or infinity
// becomes +0 and an active one passes with its payload.
func TestReLUAndGateMatchScalar(t *testing.T) {
	contract(t, ordinary|special, nil, "ReLU", "GateByMask")
}

// TestMaxPool2x2MatchesScalar and TestMaxPool2x2SpecialInEveryPosition: the
// chain of strict comparisons — top-left, top-right, bottom-left,
// bottom-right — so the first of equal maxima wins and a NaN wins only from
// the first position.
func TestMaxPool2x2MatchesScalar(t *testing.T) { contract(t, ordinary, nil, "MaxPool2x2") }
func TestMaxPool2x2SpecialInEveryPosition(t *testing.T) {
	contract(t, special, nil, "MaxPool2x2")
}

// TestSGDStepMatchesScalar: two products, a sum and a difference in float64,
// one rounding to the element type. A fused multiply-add anywhere in it
// changes the last bit of about every second weight.
func TestSGDStepMatchesScalar(t *testing.T) { contract(t, ordinary|special, nil, "SGDStep") }
