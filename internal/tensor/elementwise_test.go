package tensor

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"fedca/internal/rng"
)

// sigmoid and tanh run the vector bodies of the cell's two nonlinearities
// over a slice — through mapVec, which sends a group they do not serve, and
// the tail, to the math calls — for the property tests below and the
// contract's entries. dst must be at least as long as src, and either src
// itself or disjoint from it.
func sigmoid(dst, src []float64) { mapVec(dst, src, sigmoidAVX2, sigmoidRef) }
func tanh(dst, src []float64)    { mapVec(dst, src, tanhAVX2, math.Tanh) }

// mapVec applies ref to every element of src, through vec for the groups of
// four it serves: vec returns how many elements it did before a group it does
// not serve, or the end.
func mapVec(dst, src []float64, vec func(dst, src *float64, n int) int, ref func(float64) float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	for useVecMath && n-i >= 4 {
		i += vec(&dst[i], &src[i], (n-i)&^3)
		if n-i >= 4 {
			for end := i + 4; i < end; i++ {
				dst[i] = ref(src[i])
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = ref(src[i])
	}
}

// forceVecMath switches the vector bodies of sigmoid and tanh on for the rest
// of the test, or skips it where the CPU cannot run them. It asks the CPU, not
// useVecMath: a kernel that stopped agreeing with math.Exp must fail the
// tests below, not switch itself off at start-up and pass them on the scalar
// path.
func forceVecMath(t *testing.T) {
	t.Helper()
	if !detectAVX2() || !detectFMA() {
		t.Skip("no AVX2+FMA: sigmoid and tanh are the math calls themselves")
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
	{"sigmoid", sigmoid, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"tanh", tanh, math.Tanh},
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

// TestVecMathUnderGODEBUG: with the standard library told not to use FMA,
// math.Exp takes its unfused branch while the CPU still advertises FMA; the
// start-up comparison must then leave the vector path off, so that sigmoid
// and tanh still equal the math calls. (Built with GOAMD64=v3 the library
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
		b.Run("f32/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.f()
			}
		})
	}
}
