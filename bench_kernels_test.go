// Per-kernel benchmark suite for the math floor (DESIGN.md §11): every GEMM
// orientation the models use, at the exact shapes the tiny-scale fig7/table1
// workloads hit, each measured at both dtypes against textbookGEMM, a plain
// triple loop kept here as a timing baseline (internal/tensor's contract
// tests hold the kernels' bits to their definition).
// Each float32 entry also records its speedup over the float64 blocked kernel
// at the same shape: the SIMD-width-aware f32 path must actually buy
// throughput, not just narrower storage. After each benchmark family runs,
// the accumulated results are written to BENCH_kernels.json (override with
// FEDCA_BENCH_KERNELS_JSON) so kernel regressions show up as a speedup-ratio
// trajectory, not a vibe.
//
//	go test -bench 'BenchmarkGEMM|BenchmarkConv' -benchtime=100x .
package fedca_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// gemmShape names one GEMM the model hot loop issues. m×k times k×n in the
// kernel's own orientation (for NT the second operand is stored n×k, for TN
// the first is stored k×m).
type gemmShape struct {
	name    string
	m, k, n int
}

// Shapes from the tiny-scale CNN (fig7/table1 workload: conv1 3×16×16 k5 p2,
// conv2 6×8×8 k5 p2, fc1 256→120, batch 16) and the LSTM (hidden 24, gates
// 96, batch 16). Comments give the producing operation.
var (
	gemmShapesNT = []gemmShape{
		{"conv1_fwd_6x75x256", 6, 75, 256},   // W[6,75]·col[256,75]ᵀ
		{"conv2_fwd_16x150x64", 16, 150, 64}, // W[16,150]·col[64,150]ᵀ
		{"fc1_fwd_16x256x120", 16, 256, 120}, // x[16,256]·W[120,256]ᵀ
		{"lstm_gates_16x24x96", 16, 24, 96},  // h[16,24]·Whh[96,24]ᵀ
	}
	gemmShapesNN = []gemmShape{
		{"fc1_dx_16x120x256", 16, 120, 256}, // dout[16,120]·W[120,256]
		{"conv2_dW_16x64x150", 16, 64, 150}, // dout[16,64]·col[64,150] (MatMulPacked)
		{"lstm_dx_16x96x24", 16, 96, 24},    // dgates[16,96]·Whh[96,24]
	}
	gemmShapesTN = []gemmShape{
		{"conv2_dcol_64x16x150", 64, 16, 150}, // dout[16,64]ᵀ·W[16,150]
		{"fc1_dW_120x16x256", 120, 16, 256},   // dout[16,120]ᵀ·x[16,256]
		{"conv1_dcol_256x6x75", 256, 6, 75},   // dout[6,256]ᵀ·W[6,75]
	}
)

type kernelReport struct {
	BlockedSecPerOp float64 `json:"blocked_sec_per_op"`
	RefSecPerOp     float64 `json:"ref_sec_per_op,omitempty"`
	Speedup         float64 `json:"speedup_vs_ref,omitempty"`
	// SpeedupVsF64 is set on float32 entries only: the same shape's float64
	// blocked time divided by this entry's. CI pins it ≥ 1.3 at the GEMM
	// shapes — the floor the mixed-precision path must hold to be worth its
	// different training trajectory.
	SpeedupVsF64 float64 `json:"speedup_vs_f64,omitempty"`
}

var (
	kernelReportMu sync.Mutex
	kernelReports  = map[string]*kernelReport{}
)

func fillRandOf[F tensor.Float](r *rand.Rand, t *tensor.TensorOf[F]) {
	d := t.Data()
	for i := range d {
		d[i] = F(r.NormFloat64())
	}
}

func dtypeName[F tensor.Float]() string {
	var z F
	if _, ok := any(z).(float32); ok {
		return "f32"
	}
	return "f64"
}

// recordKernel stores one entry; for an f32 entry it back-references the f64
// entry of the same family/shape to compute the cross-dtype speedup, so the
// f64 benchmark of a shape must run first (the benchmark loops guarantee it).
func recordKernel(family, dtype, shape string, rep *kernelReport) {
	kernelReportMu.Lock()
	defer kernelReportMu.Unlock()
	if dtype == "f32" && rep.BlockedSecPerOp > 0 {
		if base, ok := kernelReports[family+"/f64/"+shape]; ok && base.BlockedSecPerOp > 0 {
			rep.SpeedupVsF64 = base.BlockedSecPerOp / rep.BlockedSecPerOp
		}
	}
	kernelReports[family+"/"+dtype+"/"+shape] = rep
}

// benchGEMMPair times the blocked kernel and the textbook loop on the same
// operands and records the pair (plus their ratio) in the kernel report.
func benchGEMMPair[F tensor.Float](b *testing.B, family string, s gemmShape, transA, transB bool,
	blocked func(dst, a, bt *tensor.TensorOf[F])) {
	dtype := dtypeName[F]()
	b.Run(dtype+"/"+s.name, func(b *testing.B) {
		r := rand.New(rand.NewSource(99))
		aRows, aCols := s.m, s.k
		if transA {
			aRows, aCols = s.k, s.m
		}
		bRows, bCols := s.k, s.n
		if transB {
			bRows, bCols = s.n, s.k
		}
		a := tensor.NewOf[F](aRows, aCols)
		bt := tensor.NewOf[F](bRows, bCols)
		fillRandOf(r, a)
		fillRandOf(r, bt)
		dst := tensor.NewOf[F](s.m, s.n)
		ref := tensor.NewOf[F](s.m, s.n)

		var blockedSec, refSec float64
		b.Run("blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blocked(dst, a, bt)
			}
			blockedSec = b.Elapsed().Seconds() / float64(b.N)
		})
		b.Run("ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				textbookGEMM(ref, a, bt, transA, transB)
			}
			refSec = b.Elapsed().Seconds() / float64(b.N)
		})
		rep := &kernelReport{BlockedSecPerOp: blockedSec, RefSecPerOp: refSec}
		if blockedSec > 0 {
			rep.Speedup = refSec / blockedSec
			b.ReportMetric(rep.Speedup, "speedup-vs-ref")
		}
		recordKernel(family, dtype, s.name, rep)
	})
}

// textbookGEMM is the unblocked triple loop: dst = op(a)·op(b), each element
// accumulated in ascending k. It is the timing baseline of speedup_vs_ref.
func textbookGEMM[F tensor.Float](dst, a, b *tensor.TensorOf[F], transA, transB bool) {
	m, n := dst.Dim(0), dst.Dim(1)
	k := a.Dim(1)
	if transA {
		k = a.Dim(0)
	}
	ad, bd, c := a.Data(), b.Data(), dst.Data()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s F
			for p := 0; p < k; p++ {
				av, bv := ad[i*k+p], bd[p*n+j]
				if transA {
					av = ad[p*m+i]
				}
				if transB {
					bv = bd[j*k+p]
				}
				s += F(av * bv)
			}
			c[i*n+j] = s
		}
	}
}

func BenchmarkGEMMNN(b *testing.B) {
	for _, s := range gemmShapesNN {
		benchGEMMPair[float64](b, "NN", s, false, false, tensor.MatMul)
		benchGEMMPair[float32](b, "NN", s, false, false, tensor.MatMul)
	}
	writeKernelBenchJSON(b)
}

func BenchmarkGEMMTN(b *testing.B) {
	for _, s := range gemmShapesTN {
		benchGEMMPair[float64](b, "TN", s, true, false, tensor.MatMulTransA)
		benchGEMMPair[float32](b, "TN", s, true, false, tensor.MatMulTransA)
	}
	writeKernelBenchJSON(b)
}

func BenchmarkGEMMNT(b *testing.B) {
	for _, s := range gemmShapesNT {
		benchGEMMPair[float64](b, "NT", s, false, true, tensor.MatMulTransB)
		benchGEMMPair[float32](b, "NT", s, false, true, tensor.MatMulTransB)
	}
	writeKernelBenchJSON(b)
}

// benchConvs builds the tiny-scale CNN's two convolution stages with a
// batch-16 input, matching what every fig7/table1 training step executes.
func benchConvs[F tensor.Float]() (conv1, conv2 *nn.Conv2DOf[F], x1, x2 *tensor.TensorOf[F]) {
	rr := rng.New(7)
	g1 := tensor.NewConvGeom(3, 16, 16, 5, 5, 1, 2)
	conv1 = nn.NewConv2DOf[F]("conv1", g1, 6, rr)
	g2 := tensor.NewConvGeom(6, 8, 8, 5, 5, 1, 2)
	conv2 = nn.NewConv2DOf[F]("conv2", g2, 16, rr)
	r := rand.New(rand.NewSource(5))
	x1 = tensor.NewOf[F](16, conv1.InDim())
	x2 = tensor.NewOf[F](16, conv2.InDim())
	fillRandOf(r, x1)
	fillRandOf(r, x2)
	return
}

func benchConvForward[F tensor.Float](b *testing.B) {
	conv1, conv2, x1, x2 := benchConvs[F]()
	dtype := dtypeName[F]()
	for _, bc := range []struct {
		name string
		c    *nn.Conv2DOf[F]
		x    *tensor.TensorOf[F]
	}{{"conv1", conv1, x1}, {"conv2", conv2, x2}} {
		b.Run(dtype+"/"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.c.Forward(bc.x, false)
			}
			recordKernel("ConvForward", dtype, bc.name,
				&kernelReport{BlockedSecPerOp: b.Elapsed().Seconds() / float64(b.N)})
		})
	}
}

func BenchmarkConvForward(b *testing.B) {
	benchConvForward[float64](b)
	benchConvForward[float32](b)
	writeKernelBenchJSON(b)
}

// benchConvBackward times the full train step of each conv layer (forward in
// train mode + backward): Backward consumes the forward activations, so the
// pair is the unit the training loop actually pays for.
func benchConvBackward[F tensor.Float](b *testing.B) {
	conv1, conv2, x1, x2 := benchConvs[F]()
	dtype := dtypeName[F]()
	for _, bc := range []struct {
		name string
		c    *nn.Conv2DOf[F]
		x    *tensor.TensorOf[F]
	}{{"conv1", conv1, x1}, {"conv2", conv2, x2}} {
		b.Run(dtype+"/"+bc.name, func(b *testing.B) {
			dout := tensor.NewOf[F](16, bc.c.OutDim())
			fillRandOf(rand.New(rand.NewSource(6)), dout)
			for i := 0; i < b.N; i++ {
				bc.c.Forward(bc.x, true)
				bc.c.Backward(dout)
			}
			recordKernel("ConvFwdBwd", dtype, bc.name,
				&kernelReport{BlockedSecPerOp: b.Elapsed().Seconds() / float64(b.N)})
		})
	}
}

func BenchmarkConvBackward(b *testing.B) {
	benchConvBackward[float64](b)
	benchConvBackward[float32](b)
	writeKernelBenchJSON(b)
}

// writeKernelBenchJSON persists everything accumulated so far; each benchmark
// family rewrites the file, so a full-suite run leaves the complete report.
func writeKernelBenchJSON(b *testing.B) {
	kernelReportMu.Lock()
	defer kernelReportMu.Unlock()
	if len(kernelReports) == 0 {
		return
	}
	path := os.Getenv("FEDCA_BENCH_KERNELS_JSON")
	if path == "" {
		path = "BENCH_kernels.json"
	}
	doc := struct {
		Bench      string                   `json:"bench"`
		CPUs       int                      `json:"cpus"`
		GOMAXPROCS int                      `json:"gomaxprocs"`
		Kernels    map[string]*kernelReport `json:"kernels"`
	}{
		Bench:      "kernels",
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernels:    kernelReports,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", path)
}
