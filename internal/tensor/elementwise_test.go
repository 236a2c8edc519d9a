package tensor

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"fedca/internal/rng"
)

// forceVecMath switches the vector bodies of Sigmoid and Tanh on for the rest
// of the test, or skips it where the CPU cannot run them. It asks the CPU, not
// useVecMath: a kernel that stopped agreeing with math.Exp must fail the
// tests below, not switch itself off at start-up and pass them on the scalar
// path.
func forceVecMath(t *testing.T) {
	t.Helper()
	if !detectAVX2() || !detectFMA() {
		t.Skip("no AVX2+FMA: Sigmoid and Tanh are the math calls themselves")
	}
	saved := useVecMath
	t.Cleanup(func() { useVecMath = saved })
	useVecMath = true
}

// The two functions under test with the expressions that define them.
var vecMathFuncs = []struct {
	name string
	vec  func(dst, src []float64)
	ref  func(float64) float64
}{
	{"sigmoid", Sigmoid, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"tanh", Tanh, math.Tanh},
}

// checkVecMath compares vec over xs with ref element by element, all 64 bits.
func checkVecMath(t *testing.T, name, label string, vec func(dst, src []float64), ref func(float64) float64, xs []float64) {
	t.Helper()
	got := make([]float64, len(xs))
	vec(got, xs)
	bad := 0
	for i, x := range xs {
		if want := ref(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			if bad++; bad <= 5 {
				t.Errorf("%s %s: f(%v = %#x) = %v (%#x), want %v (%#x)", name, label,
					x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s %s: %d of %d inputs differ", name, label, bad, len(xs))
	}
}

// TestVecMathStartsEnabled: on a CPU with AVX2 and FMA and a standard library
// that uses them, the start-up comparison must have left the vector path on.
func TestVecMathStartsEnabled(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG overrides the CPU features the standard library sees")
	}
	if want := detectAVX2() && detectFMA(); useVecMath != want {
		t.Fatalf("useVecMath = %v on a CPU with AVX2+FMA = %v", useVecMath, want)
	}
}

// TestVecMathRandom: the vector kernels equal the math expressions on every
// bit over 2²⁰ inputs from each of four distributions: the gate
// pre-activations a trained cell sees, wider ones that reach both of tanh's
// other branches and sigmoid's tails, ones that cross the ±700 bail-out, and
// raw bit patterns (every exponent, NaNs and infinities among them).
func TestVecMathRandom(t *testing.T) {
	forceVecMath(t)
	const n = 1 << 20
	r := rng.New(20241001)
	ranges := []struct {
		label string
		draw  func() float64
	}{
		{"N(0,1)", func() float64 { return r.Normal(0, 1) }},
		{"N(0,10)", func() float64 { return r.Normal(0, 10) }},
		{"N(0,300)", func() float64 { return r.Normal(0, 300) }},
		{"raw bits", func() float64 { return math.Float64frombits(r.Uint64()) }},
	}
	xs := make([]float64, n)
	for _, rg := range ranges {
		for i := range xs {
			xs[i] = rg.draw()
		}
		for _, f := range vecMathFuncs {
			checkVecMath(t, f.name, rg.label, f.vec, f.ref, xs)
		}
	}
}

// TestVecMathEdges puts every edge value in every lane of a group whose other
// lanes are ordinary, so that a bail-out is taken for the edge's sake and a
// blend is decided per lane.
func TestVecMathEdges(t *testing.T) {
	forceVecMath(t)
	const maxLog = 8.8029691931113054295988e+01
	inf := math.Inf(1)
	around := func(x float64) []float64 {
		return []float64{math.Nextafter(x, -inf), x, math.Nextafter(x, inf)}
	}
	edges := []float64{
		0, math.Copysign(0, -1), inf, -inf,
		math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF80000DEADBEEF), // quiet, payloads
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF4000000000000), // signalling
		709.78, -709.78, 709.7827128933841, -745.2, 745.2, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // smallest subnormal
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.Float64frombits(0x800FFFFFFFFFFFFF), // largest subnormal
		math.Float64frombits(0x0010000000000000), 1e-300, 1e-160, -1e-160, // x·x underflows
		0.5, -0.5, 1, -1, 22, -22, 36.7, -36.8, // sigmoid's 1+e rounds to 1 near 36.7
	}
	for _, x := range []float64{0.625, 0.5 * maxLog, 700, 0.5 * math.Ln2, 1.5 * math.Ln2, 88, 350} {
		edges = append(edges, around(x)...)
		edges = append(edges, around(-x)...)
	}
	ordinary := []float64{0.3, -1.7, 4.25, -0.01}
	var xs []float64
	for _, e := range edges {
		for lane := 0; lane < 4; lane++ {
			group := append([]float64(nil), ordinary...)
			group[lane] = e
			xs = append(xs, group...)
		}
		xs = append(xs, e, e, e, e)
	}
	for _, f := range vecMathFuncs {
		checkVecMath(t, f.name, "edges", f.vec, f.ref, xs)
	}
}

// TestVecMathShapes: every length from 0 to 17 at every 8-byte alignment of
// source and destination within a vector, with guard words on both sides of
// the destination, separate and in place.
func TestVecMathShapes(t *testing.T) {
	forceVecMath(t)
	r := rng.New(5)
	for _, f := range vecMathFuncs {
		for n := 0; n <= 17; n++ {
			for so := 0; so < 4; so++ {
				for do := 0; do < 4; do++ {
					src := make([]float64, so+n)
					for i := range src {
						src[i] = r.Normal(0, 3)
					}
					if n > 5 {
						src[so+5] = 1000 // one group bails out, the next must resume
					}
					dst := make([]float64, do+n+8)
					for i := range dst {
						dst[i] = guard
					}
					f.vec(dst[do+4:do+4+n], src[so:])
					for i, v := range dst {
						want := float64(guard)
						if j := i - do - 4; j >= 0 && j < n {
							want = f.ref(src[so+j])
						}
						if math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%s n=%d src+%d dst+%d: dst[%d] = %v, want %v", f.name, n, so, do, i-do-4, v, want)
						}
					}
					// In place.
					want := make([]float64, n)
					for i := range want {
						want[i] = f.ref(src[so+i])
					}
					f.vec(src[so:], src[so:])
					for i, w := range want {
						if math.Float64bits(src[so+i]) != math.Float64bits(w) {
							t.Fatalf("%s n=%d in place at +%d: [%d] = %v, want %v", f.name, n, so, i, src[so+i], w)
						}
					}
				}
			}
		}
	}
}

// TestVecMathUnderGODEBUG: with the standard library told not to use FMA,
// math.Exp takes its unfused branch while the CPU still advertises FMA; the
// start-up comparison must then leave the vector path off, so that Sigmoid
// and Tanh still equal the math calls. (Built with GOAMD64=v3 the library
// ignores the setting, and the vector path rightly stays on.)
func TestVecMathUnderGODEBUG(t *testing.T) {
	const setting = "cpu.fma=off"
	if strings.Contains(os.Getenv("GODEBUG"), setting) { // the child, or a run under the setting itself
		const n = 1 << 16
		r := rng.New(9)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 4)
		}
		for _, f := range vecMathFuncs {
			checkVecMath(t, f.name, "child", f.vec, f.ref, xs)
		}
		return
	}
	if !detectAVX2() || !detectFMA() {
		t.Skip("no AVX2+FMA")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestVecMathUnderGODEBUG$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+setting)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("with GODEBUG="+setting+" the vector path no longer equals math.*: %v\n%s", err, out)
	}
}

// TestAddSlicesMatchesScalar: Add and AddInto on every path equal the scalar
// loop at both dtypes, every length around the vector widths, every offset,
// in place and into a third slice, with the neighbours untouched.
func TestAddSlicesMatchesScalar(t *testing.T) {
	t.Run("f64", testAddSlices[float64])
	t.Run("f32", testAddSlices[float32])
}

func testAddSlices[F Float](t *testing.T) {
	r := rng.New(6)
	forEachKernelPath(func(path string) {
		for n := 1; n <= 41; n++ {
			for off := 0; off < 8; off++ {
				buf := func() []F {
					s := make([]F, off+n+1)
					for i := range s {
						s[i] = F(r.Normal(0, 1e3))
					}
					return s
				}
				a, b, c := buf(), buf(), buf()
				a[off] = F(math.Inf(1))
				b[off+n-1] = F(math.NaN())
				want := make([]F, n)
				for i := range want {
					want[i] = a[off+i] + b[off+i]
				}
				ta, tb, tc := FromSliceOf(a[off:off+n], n), FromSliceOf(b[off:off+n], n), FromSliceOf(c[off:off+n], n)
				last := c[off+n]
				tc.AddInto(ta, tb)
				alast := a[off+n]
				ta.Add(tb)
				for i, w := range want {
					if !sameBits(c[off+i], w) || !sameBits(a[off+i], w) {
						t.Fatalf("%s n=%d off=%d [%d]: AddInto %v, Add %v, want %v", path, n, off, i, c[off+i], a[off+i], w)
					}
				}
				if c[off+n] != last || a[off+n] != alast {
					t.Fatalf("%s n=%d off=%d: wrote past the end", path, n, off)
				}
			}
		}
	})
}

// TestAddRowsMatchesScalar: AddRows on every path equals adding the rows one
// after another at both dtypes, for every width around the vector widths and
// several row counts, with the neighbours untouched.
func TestAddRowsMatchesScalar(t *testing.T) {
	t.Run("f64", testAddRows[float64])
	t.Run("f32", testAddRows[float32])
}

func testAddRows[F Float](t *testing.T) {
	r := rng.New(12)
	forEachKernelPath(func(path string) {
		for cols := 1; cols <= 35; cols++ {
			for _, rows := range []int{1, 2, 5, 32} {
				for off := 0; off < 4; off++ {
					dst := make([]F, off+cols+1)
					for i := range dst {
						dst[i] = F(r.Normal(0, 1))
					}
					src := make([]F, off+rows*cols)
					for i := range src {
						src[i] = F(r.Normal(0, 1e3))
					}
					src[off+rows*cols-1] = F(math.Inf(1))
					want := append([]F(nil), dst...)
					for i := 0; i < rows; i++ {
						for j := 0; j < cols; j++ {
							want[off+j] += src[off+i*cols+j]
						}
					}
					FromSliceOf(dst[off:off+cols], cols).AddRows(FromSliceOf(src[off:], rows, cols))
					for i := range want {
						if !sameBits(dst[i], want[i]) {
							t.Fatalf("%s cols=%d rows=%d off=%d: [%d] = %v, want %v", path, cols, rows, off, i-off, dst[i], want[i])
						}
					}
				}
			}
		}
	})
}

// gateGradRef is the gate-gradient loop as lstmLayerOf.bptt had it before the
// kernel, kept as written.
func gateGradRef[F Float](dgates, dcPrev, act, tanhC, cPrev, dh, dcNext []F, batch, hid int) {
	for b := 0; b < batch; b++ {
		for j := 0; j < hid; j++ {
			idx := b*hid + j
			dhv := float64(dh[idx])
			base := b * 4 * hid
			o := float64(act[base+3*hid+j])
			tc := float64(tanhC[idx])
			dc := dhv*o*(1-tc*tc) + float64(dcNext[idx])
			i, f, g := float64(act[base+j]), float64(act[base+hid+j]), float64(act[base+2*hid+j])
			di := dc * g
			df := dc * float64(cPrev[idx])
			dg := dc * i
			do := dhv * tc
			dgates[base+j] = F(di * i * (1 - i))
			dgates[base+hid+j] = F(df * f * (1 - f))
			dgates[base+2*hid+j] = F(dg * (1 - g*g))
			dgates[base+3*hid+j] = F(do * o * (1 - o))
			dcPrev[idx] = F(dc * f)
		}
	}
}

// TestLSTMGateGradMatchesScalar: both paths of the kernel equal the loop it
// replaced at both dtypes, for hidden sizes with and without a vector tail
// and one or several batch rows, at every offset, guards intact. (amd64
// fuses nothing, so the reference as written is the unfused one.)
func TestLSTMGateGradMatchesScalar(t *testing.T) {
	t.Run("f64", testLSTMGateGrad[float64])
	t.Run("f32", testLSTMGateGrad[float32])
}

func testLSTMGateGrad[F Float](t *testing.T) {
	r := rng.New(8)
	forEachKernelPath(func(path string) {
		for hid := 1; hid <= 33; hid++ {
			for _, batch := range []int{1, 2, 5} {
				off := (hid + batch) % 4
				slab := func(n int, draw func() float64) []F {
					s := make([]F, off+n+1)
					for i := range s {
						s[i] = F(draw())
					}
					return s[off : off+n : off+n+1]
				}
				unit := func() float64 { return r.Float64() }
				signed := func() float64 { return 2*r.Float64() - 1 }
				wide := func() float64 { return r.Normal(0, 2) }
				n := batch * hid
				act := slab(4*n, unit)
				for b := 0; b < batch; b++ {
					for j := 2 * hid; j < 3*hid; j++ {
						act[b*4*hid+j] = F(signed()) // g is a tanh
					}
				}
				tanhC, cPrev, dh, dcNext := slab(n, signed), slab(n, wide), slab(n, wide), slab(n, wide)
				if n > 2 {
					dh[2], dcNext[1] = F(math.Inf(-1)), F(math.NaN())
				}
				got, gotC := slab(4*n, unit), slab(n, unit)
				want, wantC := make([]F, 4*n), make([]F, n)
				g1, g2 := got[:4*n+1][4*n], gotC[:n+1][n]
				LSTMGateGrad(got, gotC, act, tanhC, cPrev, dh, dcNext, hid)
				gateGradRef(want, wantC, act, tanhC, cPrev, dh, dcNext, batch, hid)
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("%s hid=%d batch=%d: dgates[%d] = %v, want %v", path, hid, batch, j, got[j], want[j])
					}
				}
				for j := range wantC {
					if !sameBits(gotC[j], wantC[j]) {
						t.Fatalf("%s hid=%d batch=%d: dcPrev[%d] = %v, want %v", path, hid, batch, j, gotC[j], wantC[j])
					}
				}
				if got[:4*n+1][4*n] != g1 || gotC[:n+1][n] != g2 {
					t.Fatalf("%s hid=%d batch=%d: wrote past the end", path, hid, batch)
				}
			}
		}
	})
}
