//go:build !amd64

package tensor

import "unsafe"

// Without the amd64 assembly every product runs on the portable kernel.
var useAVX2 = false

func detectAVX2() bool { return false }

func gemmPanelAVX2[F Float](half bool, m, k int, a *F, ars, aps int, b, c *F, cs int) {
	panic("tensor: AVX2 kernel called on a non-amd64 build")
}

func copyBlocksAVX2(dst, src unsafe.Pointer, n, dstStride, srcStride int) {
	panic("tensor: AVX2 copy called on a non-amd64 build")
}

func copyBlocksMaskedAVX2(dst, src unsafe.Pointer, n, dstStride, srcStride int, mask *[16]int32) {
	panic("tensor: AVX2 copy called on a non-amd64 build")
}

func interleave8AVX2F64(dst, src unsafe.Pointer, n, dstStride, rowStride int) {
	panic("tensor: AVX2 transpose called on a non-amd64 build")
}

func interleave8AVX2F32(dst, src unsafe.Pointer, n, dstStride, rowStride int) {
	panic("tensor: AVX2 transpose called on a non-amd64 build")
}

func movePlanesAVX2(dst, src unsafe.Pointer, planes, rows, width, dstStride, srcStride, dstPlane, srcPlane int) {
	panic("tensor: AVX2 copy called on a non-amd64 build")
}

func im2colSegsAVX2(dst, p unsafe.Pointer, tap *int32, ntap int, pos *int32, npanel, posStep, seg, segStride, shift int) {
	panic("tensor: AVX2 im2col called on a non-amd64 build")
}

func im2colT8AVX2[F Float](dst, p *F, tap *int32, rows, cols, srcStride, dstStride int) {
	panic("tensor: AVX2 im2col called on a non-amd64 build")
}

func col2imAddAVX2[F Float](pg, col *F, tap *int32, ntap, rows, cols, dstStride int) {
	panic("tensor: AVX2 col2im called on a non-amd64 build")
}

// Nor is there a vector sigmoid or tanh: both are the math calls.
var useVecMath = false

func detectFMA() bool { return false }

func sigmoidAVX2(dst, src *float64, n int) int {
	panic("tensor: AVX2 sigmoid called on a non-amd64 build")
}

func tanhAVX2(dst, src *float64, n int) int {
	panic("tensor: AVX2 tanh called on a non-amd64 build")
}

func addAVX2F64(dst, a, b *float64, n int) {
	panic("tensor: AVX2 add called on a non-amd64 build")
}

func addAVX2F32(dst, a, b *float32, n int) {
	panic("tensor: AVX2 add called on a non-amd64 build")
}

func addRowsAVX2F64(dst, src *float64, rows, cols, n int) {
	panic("tensor: AVX2 add called on a non-amd64 build")
}

func addRowsAVX2F32(dst, src *float32, rows, cols, n int) {
	panic("tensor: AVX2 add called on a non-amd64 build")
}

func lstmGateGradAVX2F64(dgates, dcPrev, act, tanhC, cPrev, dh, dcNext *float64, hid, rows int) {
	panic("tensor: AVX2 gate gradient called on a non-amd64 build")
}

func lstmGateGradAVX2F32(dgates, dcPrev, act, tanhC, cPrev, dh, dcNext *float32, hid, rows int) {
	panic("tensor: AVX2 gate gradient called on a non-amd64 build")
}

func lstmCellAVX2F64(act, hh, bias, cPrev, c, tanhC, h *float64, hid, rows, g0 int) int {
	panic("tensor: AVX2 LSTM cell called on a non-amd64 build")
}

func lstmCellAVX2F32(act, hh, bias, cPrev, c, tanhC, h *float32, hid, rows, g0 int) int {
	panic("tensor: AVX2 LSTM cell called on a non-amd64 build")
}

func reluAVX2F64(dst, src *float64, mask *bool, n int) {
	panic("tensor: AVX2 ReLU called on a non-amd64 build")
}

func reluAVX2F32(dst, src *float32, mask *bool, n int) {
	panic("tensor: AVX2 ReLU called on a non-amd64 build")
}

func gateAVX2F64(dst, src *float64, mask *bool, n int) {
	panic("tensor: AVX2 gate called on a non-amd64 build")
}

func gateAVX2F32(dst, src *float32, mask *bool, n int) {
	panic("tensor: AVX2 gate called on a non-amd64 build")
}

func maxPool2x2AVX2F64(ys *float64, am *int32, xs *float64, rows, groups, w, ow, base int) {
	panic("tensor: AVX2 max pool called on a non-amd64 build")
}

func maxPool2x2AVX2F32(ys *float32, am *int32, xs *float32, rows, groups, w, ow, base int) {
	panic("tensor: AVX2 max pool called on a non-amd64 build")
}

func sgdStepAVX2F64(w, grad *float64, n int, lr, wd float64) {
	panic("tensor: AVX2 SGD step called on a non-amd64 build")
}

func sgdStepAVX2F32(w, grad *float32, n int, lr, wd float64) {
	panic("tensor: AVX2 SGD step called on a non-amd64 build")
}
