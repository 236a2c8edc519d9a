package nn

import (
	"fmt"
	"math"
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// Layer-level checks of the layers whose arithmetic is an internal/tensor
// kernel (ReLU, max pooling, the SGD step): tensor's contract tests hold each
// kernel to its reference, and these hold each layer to its kernel — a batch
// split into samples or element ranges and fanned out, argmax offsets taken
// per sample, train and inference passes alike. Batch norm and the momentum
// step have no kernel, so their references live here.

// poolInput draws a batch from a handful of values, so that most windows hold
// ties, signed zeros and NaNs in every position.
func poolInput[F tensor.Float](r *rng.RNG, batch, dim int) *tensor.TensorOf[F] {
	values := []F{0, F(math.Copysign(0, -1)), 1, 1, -1, 2, F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1))}
	x := tensor.NewOf[F](batch, dim)
	for i := range x.Data() {
		x.Data()[i] = values[r.Intn(len(values))]
	}
	return x
}

func testMaxPoolMatchesReference[F tensor.Float](t *testing.T) {
	r := rng.New(21)
	geoms := []struct{ c, h, w, k, stride int }{
		{3, 8, 8, 2, 2}, // the 2×2 path, as the CNN uses it
		{2, 7, 9, 2, 2}, // … with a row and a column the windows never reach
		{1, 2, 2, 2, 2}, // … at a single window
		{2, 6, 6, 2, 1}, // overlapping windows: generic
		{2, 7, 7, 3, 2}, // generic
		{1, 6, 6, 3, 3}, // generic
		{2, 5, 5, 1, 1}, // identity: generic
		{1, 8, 8, 2, 3}, // gaps between windows: generic
		{1, 9, 9, 4, 2}, // K = 2·stride: generic
	}
	const batch = 3
	for _, g := range geoms {
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d", g.c, g.h, g.w, g.k, g.stride), func(t *testing.T) {
			p := NewMaxPool2DOf[F](g.c, g.h, g.w, g.k, g.stride)
			inDim, outDim := p.InDim(), p.OutDim()
			for trial := 0; trial < 20; trial++ {
				x := poolInput[F](r, batch, inDim)
				wantY, wantArg := make([]F, batch*outDim), make([]int32, batch*outDim)
				for i := 0; i < batch; i++ { // one sample at a time, through the kernel
					xs, ys, am := x.Data()[i*inDim:(i+1)*inDim], wantY[i*outDim:(i+1)*outDim], wantArg[i*outDim:(i+1)*outDim]
					if g.k == 2 && g.stride == 2 {
						tensor.MaxPool2x2(ys, am, xs, g.c, g.h, g.w)
					} else {
						p.sampleGeneric(xs, ys, am)
					}
				}
				if i := sameBits(wantY, p.Forward(x, false).Data()); i >= 0 {
					t.Fatalf("trial %d: inference output differs from the kernel's at %d", trial, i)
				}
				if i := sameBits(wantY, p.Forward(x, true).Data()); i >= 0 {
					t.Fatalf("trial %d: training output differs from the kernel's at %d", trial, i)
				}
				// Backward adds each output's gradient at its sample's winner.
				dout := poolInput[F](r, batch, outDim)
				wantDx := make([]F, batch*inDim)
				for o, a := range wantArg {
					wantDx[o/outDim*inDim+int(a)] += dout.Data()[o]
				}
				if i := sameBits(wantDx, p.Backward(dout).Data()); i >= 0 {
					t.Fatalf("trial %d: input gradient differs at %d", trial, i)
				}
			}
		})
	}
}

// TestMaxPoolMatchesReference: both pooling paths over a batch equal the
// kernel applied sample by sample — values, and gradients routed to each
// sample's winners — on inputs full of ties, −0 and NaN.
func TestMaxPoolMatchesReference(t *testing.T) {
	t.Run("f64", testMaxPoolMatchesReference[float64])
	t.Run("f32", testMaxPoolMatchesReference[float32])
}

// TestMaxPoolNaNInEveryWindowPosition pins the rule both paths keep: a NaN
// wins only from the first position, where nothing is compared with it, and
// is passed over anywhere else.
func TestMaxPoolNaNInEveryWindowPosition(t *testing.T) {
	p := NewMaxPool2DOf[float64](1, 2, 2, 2, 2)
	for pos, want := range []struct {
		y   float64
		arg int32
	}{{math.NaN(), 0}, {2, 2}, {3, 1}, {3, 1}} {
		x := tensor.FromSlice([]float64{1, 3, 2, 0}, 1, 4)
		x.Data()[pos] = math.NaN()
		y := p.Forward(x, true).Data()[0]
		if sameBits([]float64{y}, []float64{want.y}) >= 0 || p.argmax[0] != want.arg {
			t.Fatalf("NaN at %d: got %v at %d, want %v at %d", pos, y, p.argmax[0], want.y, want.arg)
		}
	}
}

func testReLUMatchesReference[F tensor.Float](t *testing.T) {
	special := []F{F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)), F(math.Copysign(0, -1)), 0, 1, -1,
		// signalling NaNs with a payload, one per dtype (the other dtype sees
		// it quietened by the conversion, which is one more NaN)
		F(math.Float32frombits(0x7fa00001)), F(math.Float64frombits(0x7ff4000000000001)),
		F(math.SmallestNonzeroFloat32)}
	r := rng.New(22)
	const batch, dim = 3, 40000 // several element ranges when the fan-out has tokens
	relu := NewReLUOf[F](dim)
	x, dout := tensor.NewOf[F](batch, dim), tensor.NewOf[F](batch, dim)
	for trial := 0; trial < 3; trial++ {
		for i := range x.Data() {
			x.Data()[i], dout.Data()[i] = F(r.Normal(0, 1)), F(r.Normal(0, 1))
			if r.Intn(4) == 0 {
				x.Data()[i] = special[r.Intn(len(special))]
			}
			if r.Intn(4) == 0 {
				dout.Data()[i] = special[r.Intn(len(special))]
			}
		}
		want, mask, wantDx := make([]F, x.Size()), make([]bool, x.Size()), make([]F, x.Size())
		tensor.ReLU(want, x.Data(), mask)
		tensor.GateByMask(wantDx, dout.Data(), mask)
		if i := sameBits(want, relu.Forward(x, false).Data()); i >= 0 {
			t.Fatalf("inference forward differs from the kernel's at %d", i)
		}
		if i := sameBits(want, relu.Forward(x, true).Data()); i >= 0 {
			t.Fatalf("training forward differs from the kernel's at %d", i)
		}
		if i := sameBits(wantDx, relu.Backward(dout).Data()); i >= 0 {
			t.Fatalf("backward differs from the kernel's gate at %d", i)
		}
	}
}

// TestReLUMatchesReference: the layer, split into element ranges, equals one
// call of the clamp and the gate over the whole batch, bit for bit, with NaN,
// ±Inf and −0 at gated and ungated positions.
func TestReLUMatchesReference(t *testing.T) {
	t.Run("f64", testReLUMatchesReference[float64])
	t.Run("f32", testReLUMatchesReference[float32])
}

// refBatchNorm is BatchNorm2D as it was — forward with the train test inside
// the innermost loop, backward indexing element by element — returning the
// output, x̂, the input gradient and the two parameter gradients.
func refBatchNorm[F tensor.Float](b *BatchNorm2DOf[F], x, dout *tensor.TensorOf[F]) (y, xhat, dx, dGamma, dBeta []F) {
	batch := x.Dim(0)
	spatial := b.H * b.W
	inDim := b.C * spatial
	n := float64(batch * spatial)
	xd, dd := x.Data(), dout.Data()
	y, xhat, dx = make([]F, batch*inDim), make([]F, batch*inDim), make([]F, batch*inDim)
	dGamma, dBeta = make([]F, b.C), make([]F, b.C)
	invStds := make([]float64, b.C)
	g, be := b.Gamma.Value.Data(), b.Beta.Value.Data()
	for c := 0; c < b.C; c++ {
		sum, sum2 := 0.0, 0.0
		for i := 0; i < batch; i++ {
			for _, v := range xd[i*inDim+c*spatial : i*inDim+(c+1)*spatial] {
				sum += float64(v)
				sum2 += float64(v) * float64(v)
			}
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		invStd := 1 / math.Sqrt(variance+b.Eps)
		invStds[c] = invStd
		gamma, beta := float64(g[c]), float64(be[c])
		for i := 0; i < batch; i++ {
			base := i*inDim + c*spatial
			for j := 0; j < spatial; j++ {
				xh := (float64(xd[base+j]) - mean) * invStd
				xhat[base+j] = F(xh)
				y[base+j] = F(gamma*xh + beta)
			}
		}
	}
	for c := 0; c < b.C; c++ {
		var sumD, sumDX float64
		for i := 0; i < batch; i++ {
			base := i*inDim + c*spatial
			for j := 0; j < spatial; j++ {
				d := float64(dd[base+j])
				sumD += d
				sumDX += d * float64(xhat[base+j])
			}
		}
		dGamma[c] += F(sumDX)
		dBeta[c] += F(sumD)
		k := float64(g[c]) * invStds[c] / n
		for i := 0; i < batch; i++ {
			base := i*inDim + c*spatial
			for j := 0; j < spatial; j++ {
				dx[base+j] = F(k * (n*float64(dd[base+j]) - sumD - float64(xhat[base+j])*sumDX))
			}
		}
	}
	return y, xhat, dx, dGamma, dBeta
}

func testBatchNormMatchesReference[F tensor.Float](t *testing.T) {
	r := rng.New(23)
	// 16×16×17 elements at batch 16 crosses the fan-out threshold; run it at
	// several worker counts, since channels may then be normalized in any
	// order by any worker.
	for _, g := range []struct{ c, h, w, batch int }{{3, 4, 5, 6}, {1, 1, 1, 4}, {17, 16, 16, 16}} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("c%d_%dx%d_b%d_w%d", g.c, g.h, g.w, g.batch, workers), func(t *testing.T) {
				old := cputok.Default().Setting()
				cputok.Default().SetCap(workers)
				defer cputok.Default().SetCap(old)
				b := NewBatchNorm2DOf[F]("bn", g.c, g.h, g.w)
				for c := 0; c < g.c; c++ {
					b.Gamma.Value.Data()[c] = F(r.Normal(1, 0.5))
					b.Beta.Value.Data()[c] = F(r.Normal(0, 0.5))
				}
				x, dout := tensor.NewOf[F](g.batch, b.OutDim()), tensor.NewOf[F](g.batch, b.OutDim())
				for i := range x.Data() {
					x.Data()[i] = F(r.Normal(0.3, 2))
					dout.Data()[i] = F(r.Normal(0, 1))
				}
				wantY, wantXhat, wantDx, wantDG, wantDB := refBatchNorm(b, x, dout)
				if i := sameBits(wantY, b.Forward(x, false).Data()); i >= 0 {
					t.Fatalf("inference forward differs from the reference at %d", i)
				}
				if i := sameBits(wantY, b.Forward(x, true).Data()); i >= 0 {
					t.Fatalf("training forward differs from the reference at %d", i)
				}
				if i := sameBits(wantXhat, b.xhat); i >= 0 {
					t.Fatalf("x̂ differs from the reference at %d", i)
				}
				if i := sameBits(wantDx, b.Backward(dout).Data()); i >= 0 {
					t.Fatalf("input gradient differs from the reference at %d", i)
				}
				if sameBits(wantDG, b.Gamma.Grad.Data()) >= 0 || sameBits(wantDB, b.Beta.Grad.Data()) >= 0 {
					t.Fatal("parameter gradients differ from the reference")
				}
			})
		}
	}
}

// TestBatchNormMatchesReference: hoisting the train test, walking row slices
// and normalizing channels on several workers leave every per-channel sum in
// its element order with its float64 accumulator — same bits at both dtypes.
func TestBatchNormMatchesReference(t *testing.T) {
	t.Run("f64", testBatchNormMatchesReference[float64])
	t.Run("f32", testBatchNormMatchesReference[float32])
}

func testSGDStepMatchesReference[F tensor.Float](t *testing.T) {
	r := rng.New(25)
	const lr = 0.05
	for _, momentum := range []float64{0, 0.9} {
		for _, wd := range []float64{0, 1e-4, 0.3} {
			for n := 1; n <= 17; n++ {
				w0, g := make([]F, n), tensor.NewOf[F](n)
				for i := range w0 {
					w0[i], g.Data()[i] = F(r.Normal(0, 1)), F(r.Normal(0, 1))
				}
				want, vd := append([]F(nil), w0...), make([]F, n)
				for step := 0; step < 3; step++ { // the velocity carries over
					if momentum == 0 {
						tensor.SGDStep(want, g.Data(), lr, wd)
						continue
					}
					// The momentum branch has no kernel: its definition, the
					// products rounded where amd64 rounds them anyway.
					for i := range want {
						grad := float64(g.Data()[i]) + float64(wd*float64(want[i]))
						vd[i] = F(float64(momentum*float64(vd[i])) + grad)
						want[i] = F(float64(want[i]) - float64(lr*float64(vd[i])))
					}
				}
				forEachKernelPath(t, func(path string) {
					p := &ParamOf[F]{Name: "p", Value: tensor.NewOf[F](n), Grad: g}
					copy(p.Value.Data(), w0)
					opt := NewSGDOf[F](lr, momentum, wd)
					for step := 0; step < 3; step++ {
						opt.Step([]*ParamOf[F]{p})
					}
					if i := sameBits(want, p.Value.Data()); i >= 0 {
						t.Fatalf("%s momentum=%v wd=%v n=%d: w[%d] = %v, want %v", path, momentum, wd, n, i, p.Value.Data()[i], want[i])
					}
				})
			}
		}
	}
	// An optimizer with nothing to update, and a parameter of no elements.
	NewSGDOf[F](0.05, 0, 1e-4).Step(nil)
	tensor.SGDStep[F](nil, nil, 0.05, 1e-4)
}

// TestSGDStepMatchesReference: the optimizer equals the step kernel per
// parameter without momentum, and the momentum branch's definition with it,
// bit for bit, with and without weight decay, over three steps, on both
// kernel paths.
func TestSGDStepMatchesReference(t *testing.T) {
	t.Run("f64", testSGDStepMatchesReference[float64])
	t.Run("f32", testSGDStepMatchesReference[float32])
}

// TestRowSumsMatchesSequential: four rows summed side by side give each row
// the sum its own left-to-right loop gives it, for row counts around the
// unrolling and for sums in which the order of the additions shows.
func TestRowSumsMatchesSequential(t *testing.T) {
	r := rng.New(26)
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range []int{1, 7, 64} {
			src := make([]float32, rows*cols)
			for i := range src {
				src[i] = float32(r.Normal(0, 1) * math.Pow(10, float64(r.Intn(6))))
			}
			want := make([]float32, rows)
			for i := range want {
				for _, v := range src[i*cols : (i+1)*cols] {
					want[i] += v
				}
			}
			got := make([]float32, rows)
			rowSums(got, src, cols)
			if i := sameBits(want, got); i >= 0 {
				t.Fatalf("rows=%d cols=%d: sum of row %d is %v, sequentially %v", rows, cols, i, got[i], want[i])
			}
		}
	}
}
