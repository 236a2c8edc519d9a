package nn

import (
	"testing"
	_ "unsafe" // go:linkname

	"fedca/internal/tensor"
)

// arenaPoison is internal/tensor's unexported test hook: while set, every
// non-zeroing arena allocation and every released buffer is filled with NaN
// (argmax −1, mask true).
//
//go:linkname arenaPoison fedca/internal/tensor.poison
var arenaPoison bool

// poisonArenas switches the hook on for the rest of the test, and checks that
// the link to internal/tensor holds.
func poisonArenas(t *testing.T) {
	t.Helper()
	arenaPoison = true
	t.Cleanup(func() { arenaPoison = false })
	if v := tensor.AllocUninitOf[float64](tensor.NewArena(), 1).Data()[0]; v == v {
		t.Fatalf("poison hook not linked: a non-zeroing allocation holds %v", v)
	}
}

// kernelAVX2 and kernelVecMath are internal/tensor's two dispatch variables
// (the AVX2 GEMM, sums and gate gradients; the FMA sigmoid and tanh), set
// there once from CPUID and written by nothing else but tests.
//
//go:linkname kernelAVX2 fedca/internal/tensor.useAVX2
var kernelAVX2 bool

//go:linkname kernelVecMath fedca/internal/tensor.useVecMath
var kernelVecMath bool

// forEachKernelPath runs body on the portable kernels and then, where the
// machine started with them, on the vector kernels: the same two paths
// internal/tensor's own tests flip between.
func forEachKernelPath(t *testing.T, body func(path string)) {
	t.Helper()
	avx2, vecMath := kernelAVX2, kernelVecMath
	defer func() { kernelAVX2, kernelVecMath = avx2, vecMath }()
	kernelAVX2, kernelVecMath = false, false
	body("portable")
	if avx2 {
		kernelAVX2, kernelVecMath = avx2, vecMath
		body("vector")
	}
}
