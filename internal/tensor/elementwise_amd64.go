//go:build amd64

package tensor

import "math"

// useVecMath selects the vector body of LSTMCell. Like useAVX2 it is set
// once from what the CPU reports and by nothing else; tests in this package
// and in internal/nn flip it. The kernel needs AVX2 and FMA, which is
// also when math.Exp takes the fused branch they repeat (math.useFMA is AVX
// and FMA); vecMathAgrees covers the one way the two tests can still part.
var useVecMath = useAVX2 && detectFMA() && vecMathAgrees()

// detectFMA reports the CPU's FMA bit (CPUID.1:ECX[12]); the OS side of the
// question is detectAVX2's.
func detectFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}

// vecMathAgrees runs the vector kernels once against the standard library.
// GODEBUG=cpu.fma=off (or cpu.avx=off) sends math.Exp down its unfused
// branch on a CPU that has FMA; its results then differ from the kernels' in
// the last bit on a few inputs in a hundred (nine of these 256), and the
// vector path stays off.
func vecMathAgrees() bool {
	var x, s, th [256]float64
	for i := range x {
		x[i] = float64(i-128) * 0.04296875
	}
	sigmoidAVX2(&s[0], &x[0], len(x))
	tanhAVX2(&th[0], &x[0], len(x))
	for i, v := range x {
		if s[i] != sigmoidRef(v) || th[i] != math.Tanh(v) {
			return false
		}
	}
	return true
}

// The vector bodies (elementwise_amd64.s). n is a multiple of the lane count
// in all of them; none checks a bound.

//go:noescape
func sigmoidAVX2(dst, src *float64, n int) int

//go:noescape
func tanhAVX2(dst, src *float64, n int) int

//go:noescape
func addAVX2F64(dst, a, b *float64, n int)

//go:noescape
func addAVX2F32(dst, a, b *float32, n int)

//go:noescape
func addRowsAVX2F64(dst, src *float64, rows, cols, n int)

//go:noescape
func addRowsAVX2F32(dst, src *float32, rows, cols, n int)

//go:noescape
func lstmGateGradAVX2F64(dgates, dcPrev, act, tanhC, cPrev, dh, dcNext *float64, hid, rows int)

//go:noescape
func lstmGateGradAVX2F32(dgates, dcPrev, act, tanhC, cPrev, dh, dcNext *float32, hid, rows int)

//go:noescape
func lstmCellAVX2F64(act, hh, bias, cPrev, c, tanhC, h *float64, hid, rows, g0 int) int

//go:noescape
func lstmCellAVX2F32(act, hh, bias, cPrev, c, tanhC, h *float32, hid, rows, g0 int) int

//go:noescape
func reluAVX2F64(dst, src *float64, mask *bool, n int)

//go:noescape
func reluAVX2F32(dst, src *float32, mask *bool, n int)

//go:noescape
func gateAVX2F64(dst, src *float64, mask *bool, n int)

//go:noescape
func gateAVX2F32(dst, src *float32, mask *bool, n int)

//go:noescape
func maxPool2x2AVX2F64(ys *float64, am *int32, xs *float64, rows, groups, w, ow, base int)

//go:noescape
func maxPool2x2AVX2F32(ys *float32, am *int32, xs *float32, rows, groups, w, ow, base int)

//go:noescape
func sgdStepAVX2F64(w, grad *float64, n int, lr, wd float64)

//go:noescape
func sgdStepAVX2F32(w, grad *float32, n int, lr, wd float64)
