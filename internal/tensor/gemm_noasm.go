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
