//go:build amd64

package tensor

import "unsafe"

// useAVX2 selects the kernel path in gemmRows. It is set once, from what the
// CPU and the operating system report, and there is no other way to set it:
// no option, flag, build tag or environment variable. Tests in this package
// flip it to run both paths on one machine.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 instructions may be executed: the CPU
// advertises AVX and AVX2, and the OS saves the YMM state across context
// switches (OSXSAVE set and XCR0 bits 1 and 2 enabled).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The AVX2 micro-kernels (gemm_amd64.s). Each call computes m rows of C
// against one packed panel:
//
//	c[i·cs + jj] = Σ_p a[i·ars + p·aps] · b[p·NR + jj]    i < m, jj < NR
//
// in 4-row tiles (then one 3-, 2- or 1-row tile), the 8 accumulators held in
// YMM registers across the whole k loop. Every lane is an ascending-k chain
// of VMULP* then VADDP* — two roundings per step, never FMA — so the result
// equals the scalar reference bit for bit. Strides are in elements; m and k
// must be at least 1, and all NR lanes of every row are stored.
//
// The half-panel kernels compute and store only the lower NR/2 lanes (one
// vector per row, half the arithmetic): they serve the ragged last panel when
// no more than half of it is real columns.

//go:noescape
func gemmPanelAVX2F64(m, k int, a *float64, ars, aps int, b, c *float64, cs int)

//go:noescape
func gemmHalfPanelAVX2F64(m, k int, a *float64, ars, aps int, b, c *float64, cs int)

//go:noescape
func gemmPanelAVX2F32(m, k int, a *float32, ars, aps int, b, c *float32, cs int)

//go:noescape
func gemmHalfPanelAVX2F32(m, k int, a *float32, ars, aps int, b, c *float32, cs int)

//go:noescape
func copyBlocksAVX2(dst, src unsafe.Pointer, n, dstStride, srcStride int)

//go:noescape
func copyBlocksMaskedAVX2(dst, src unsafe.Pointer, n, dstStride, srcStride int, mask *[16]int32)

// The transposing pack's inner step: eight source rows, rowStride bytes
// apart, become runs of eight at dst + p·dstStride for p < n. n is rounded
// down to a whole number of register transposes (4 doubles, 8 floats); the
// caller finishes the tail.

//go:noescape
func interleave8AVX2F64(dst, src unsafe.Pointer, n, dstStride, rowStride int)

//go:noescape
func interleave8AVX2F32(dst, src unsafe.Pointer, n, dstStride, rowStride int)

// gemmPanelAVX2 routes to the kernel of F's width; named ~float32/~float64
// types share their underlying type's layout.
func gemmPanelAVX2[F Float](half bool, m, k int, a *F, ars, aps int, b, c *F, cs int) {
	if sizeofF[F]() == 4 {
		a, b, c := (*float32)(unsafe.Pointer(a)), (*float32)(unsafe.Pointer(b)), (*float32)(unsafe.Pointer(c))
		if half {
			gemmHalfPanelAVX2F32(m, k, a, ars, aps, b, c, cs)
		} else {
			gemmPanelAVX2F32(m, k, a, ars, aps, b, c, cs)
		}
		return
	}
	a64, b64, c64 := (*float64)(unsafe.Pointer(a)), (*float64)(unsafe.Pointer(b)), (*float64)(unsafe.Pointer(c))
	if half {
		gemmHalfPanelAVX2F64(m, k, a64, ars, aps, b64, c64, cs)
	} else {
		gemmPanelAVX2F64(m, k, a64, ars, aps, b64, c64, cs)
	}
}
