//go:build amd64

package tensor

import "unsafe"

// The convolution's data movement at vector width (conv_amd64.s); im2col.go
// has the callers, the layout they share and the loops these are tested
// against.

//go:noescape
func movePlanesAVX2(dst, src unsafe.Pointer, planes, rows, width, dstStride, srcStride, dstPlane, srcPlane int)

//go:noescape
func im2colSegsAVX2(dst, p unsafe.Pointer, tap *int32, ntap int, pos *int32, npanel, posStep, seg, segStride, shift int)

//go:noescape
func im2colT8AVX2F64(dst, p unsafe.Pointer, tap *int32, rows, groups, srcSkip, dstStride int)

//go:noescape
func im2colT8AVX2F32(dst, p unsafe.Pointer, tap *int32, rows, groups, srcSkip, dstStride int)

//go:noescape
func col2imAddAVX2F64(pg, col unsafe.Pointer, tap *int32, ntap, rows, rowBytes, dstStride int)

//go:noescape
func col2imAddAVX2F32(pg, col unsafe.Pointer, tap *int32, ntap, rows, rowBytes, dstStride int)

// im2colT8AVX2 interleaves the views of p at tap[0..7] — rows output rows of
// cols positions (a whole number of vectors), srcStride apart — into runs of
// eight at dst, one position every dstStride. Strides are in elements.
func im2colT8AVX2[F Float](dst, p *F, tap *int32, rows, cols, srcStride, dstStride int) {
	if sizeofF[F]() == 4 {
		im2colT8AVX2F32(unsafe.Pointer(dst), unsafe.Pointer(p), tap, rows, cols/8, (srcStride-cols)*4, dstStride*4)
		return
	}
	im2colT8AVX2F64(unsafe.Pointer(dst), unsafe.Pointer(p), tap, rows, cols/4, (srcStride-cols)*8, dstStride*8)
}

// col2imAddAVX2 adds the ntap blocks of col (rows × cols each, cols a whole
// number of vectors), last block first, into pg at their taps, a row every
// dstStride elements.
func col2imAddAVX2[F Float](pg, col *F, tap *int32, ntap, rows, cols, dstStride int) {
	if sizeofF[F]() == 4 {
		col2imAddAVX2F32(unsafe.Pointer(pg), unsafe.Pointer(col), tap, ntap, rows, cols*4, dstStride*4)
		return
	}
	col2imAddAVX2F64(unsafe.Pointer(pg), unsafe.Pointer(col), tap, ntap, rows, cols*8, dstStride*8)
}
