package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"fedca/internal/rng"
	"fedca/internal/tensor"
)

// TestBackwardAfterArenaResetPanics: the forward caches (here the ReLU mask
// and Dense input) live in the arena, so resetting between Forward and
// Backward must panic via the generation check instead of silently reading
// recycled memory.
func TestBackwardAfterArenaResetPanics(t *testing.T) {
	r := rng.New(3)
	net := NewNetworkOf[float64](NewDenseOf[float64]("fc1", 6, 5, r), NewReLUOf[float64](5), NewDenseOf[float64]("fc2", 5, 3, r))
	arena := tensor.NewArena()
	net.SetArena(arena)
	x := randInput(r, 4, 6)
	logits := net.Forward(x, true)
	_, dlogits := softmaxCrossEntropy(logits, randLabels(r, 4, 3))
	arena.Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after arena Reset did not panic")
		}
	}()
	net.Backward(dlogits)
}

// sameBits reports the first index at which a and b differ in any bit (a NaN
// equals only a NaN of the same payload), or -1.
func sameBits[F tensor.Float](a, b []F) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		// Each dtype by its own bits: widening a float32 would quieten a
		// signalling NaN on both sides and hide a payload that changed.
		if unsafe.Sizeof(a[i]) == 4 {
			if math.Float32bits(float32(a[i])) != math.Float32bits(float32(b[i])) {
				return i
			}
		} else if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// lstmShapeNets adds, to everyLayerNets, LSTMs of one and two layers at hidden
// sizes with and without a vector tail (1, 3, 4, 5, 24, 25) — the shapes the
// cell and gate-gradient kernels split differently.
func lstmShapeNets[F tensor.Float](nets map[string]func() (*NetworkOf[F], int)) {
	for _, layers := range []int{1, 2} {
		for _, hid := range []int{1, 3, 4, 5, 24, 25} {
			nets[fmt.Sprintf("lstm-l%d-h%d", layers, hid)] = func() (*NetworkOf[F], int) {
				r := rng.New(uint64(100*layers + hid))
				return NewNetworkOf[F](NewLSTMOf[F]("rnn", 3, hid, 4, layers, r), NewDenseOf[F]("fc", hid, 3, r)), 12
			}
		}
	}
}

// everyLayerNets builds, per name, a network and its input width; together
// they contain every layer type, the pooling layer on both of its paths and
// at a width below the vector's, convolutions at stride 1 and 2, a residual
// block with and without a shortcut branch, and an LSTM with one layer and
// with two.
func everyLayerNets[F tensor.Float]() map[string]func() (*NetworkOf[F], int) {
	return map[string]func() (*NetworkOf[F], int){
		"dense-relu": func() (*NetworkOf[F], int) {
			r := rng.New(7)
			return NewNetworkOf[F](NewDenseOf[F]("fc1", 6, 8, r), NewReLUOf[F](8), NewDenseOf[F]("fc2", 8, 3, r)), 6
		},
		"conv-pool": func() (*NetworkOf[F], int) {
			r := rng.New(8)
			g1 := tensor.NewConvGeom(2, 8, 8, 3, 3, 1, 1)
			c1 := NewConv2DOf[F]("conv1", g1, 4, r)
			p1 := NewMaxPool2DOf[F](4, 8, 8, 2, 2) // the 2×2 path
			g2 := tensor.NewConvGeom(4, 4, 4, 3, 3, 1, 1)
			c2 := NewConv2DOf[F]("conv2", g2, 3, r)
			p2 := NewMaxPool2DOf[F](3, 4, 4, 3, 1) // the generic path
			return NewNetworkOf[F](c1, NewReLUOf[F](c1.OutDim()), p1, c2, NewReLUOf[F](c2.OutDim()), p2,
				NewDenseOf[F]("fc", p2.OutDim(), 3, r)), 2 * 8 * 8
		},
		"conv-s2-pool4": func() (*NetworkOf[F], int) {
			// What the vector bodies leave to the scalar loops: a strided
			// convolution (a 5×5 one, so that its taps reach two pixels into
			// the padding) and a 2×2 pooling of a 4×4 image, two outputs to
			// a row.
			r := rng.New(12)
			g := tensor.NewConvGeom(2, 8, 8, 5, 5, 2, 2)
			c := NewConv2DOf[F]("conv1", g, 3, r)
			p := NewMaxPool2DOf[F](3, 4, 4, 2, 2)
			return NewNetworkOf[F](c, NewReLUOf[F](c.OutDim()), p, NewDenseOf[F]("fc", p.OutDim(), 3, r)), 2 * 8 * 8
		},
		"residual": func() (*NetworkOf[F], int) { return residualNet[F]() },
		"lstm1": func() (*NetworkOf[F], int) {
			r := rng.New(10)
			return NewNetworkOf[F](NewLSTMOf[F]("rnn", 3, 5, 4, 1, r), NewDenseOf[F]("fc", 5, 3, r)), 12
		},
		"lstm2": func() (*NetworkOf[F], int) {
			r := rng.New(11)
			// Hidden = InDim: the timestep slices and the hidden states share
			// a length, so they trade buffers through the arena.
			return NewNetworkOf[F](NewLSTMOf[F]("rnn", 4, 4, 3, 2, r), NewDenseOf[F]("fc", 4, 3, r)), 12
		},
	}
}

// residualNet is everyLayerNets' "residual": a block without and one with a
// shortcut branch.
func residualNet[F tensor.Float]() (*NetworkOf[F], int) {
	r := rng.New(9)
	block := func(name string, inC, outC, stride int) *ResidualOf[F] {
		g1 := tensor.NewConvGeom(inC, 6, 6, 3, 3, stride, 1)
		c1 := NewConv2DOf[F](name+".c1", g1, outC, r)
		g2 := tensor.NewConvGeom(outC, g1.OutH, g1.OutW, 3, 3, 1, 1)
		body := []LayerOf[F]{
			NewBatchNorm2DOf[F](name+".bn1", inC, 6, 6), NewReLUOf[F](inC * 36), c1,
			NewBatchNorm2DOf[F](name+".bn2", outC, g1.OutH, g1.OutW), NewReLUOf[F](c1.OutDim()),
			NewConv2DOf[F](name+".c2", g2, outC, r),
		}
		var shortcut []LayerOf[F]
		if inC != outC || stride != 1 {
			gs := tensor.NewConvGeom(inC, 6, 6, 1, 1, stride, 0)
			shortcut = []LayerOf[F]{NewConv2DOf[F](name+".sc", gs, outC, r)}
		}
		return NewResidualOf[F](body, shortcut, inC*36)
	}
	g0 := tensor.NewConvGeom(1, 6, 6, 3, 3, 1, 1)
	return NewNetworkOf[F](NewConv2DOf[F]("conv1", g0, 2, r),
		block("b1", 2, 2, 1), block("b2", 2, 4, 2),
		NewBatchNorm2DOf[F]("bn_out", 4, 3, 3), NewReLUOf[F](36), NewGlobalAvgPool2DOf[F](4, 3, 3),
		NewDenseOf[F]("fc", 4, 3, r)), 36
}

// testArenaMatchesHeap drives a heap network and an arena-bound twin through
// training iterations with inference passes in between, under the poison
// hook: every non-zeroing allocation arrives as NaN and every released buffer
// turns to NaN, so a buffer read before it is written, or after the inference
// pass gave it back, shows as a difference from the heap network — which
// zeroes everything and releases nothing. It does so once per kernel path the
// machine can run (portable Go; AVX2 GEMM, sums and gate gradients with the
// FMA sigmoid and tanh) and returns nothing the paths may differ in: every
// output of the arena network on one path must equal the other path's.
func testArenaMatchesHeap[F tensor.Float](t *testing.T) {
	poisonArenas(t)
	t.Run("train-evaluate-train", func(t *testing.T) {
		for name, build := range everyLayerNets[F]() {
			forEachKernelPath(t, func(path string) { trainEvalTrain(t, name+" "+path, build) })
		}
	})
	nets := everyLayerNets[F]()
	lstmShapeNets(nets)
	for name, build := range nets {
		t.Run(name, func(t *testing.T) {
			if !strings.HasPrefix(name, "lstm-") {
				arenaVsHeapOnEveryPath(t, build, 5)
				return
			}
			for _, batch := range []int{1, 32} { // a single row, and the benchmark's batch
				t.Run(fmt.Sprintf("b%d", batch), func(t *testing.T) { arenaVsHeapOnEveryPath(t, build, batch) })
			}
		})
	}
}

// arenaVsHeapOnEveryPath runs arenaVsHeap on each kernel path and holds the
// vector path's outputs to the portable path's.
func arenaVsHeapOnEveryPath[F tensor.Float](t *testing.T, build func() (*NetworkOf[F], int), batch int) {
	var portable [][]F
	forEachKernelPath(t, func(path string) {
		got := arenaVsHeap(t, path, build, batch)
		if portable == nil {
			portable = got
			return
		}
		for i := range got {
			if j := sameBits(portable[i], got[i]); j >= 0 {
				t.Fatalf("output %d differs between the portable and the %s path at %d: %v vs %v", i, path, j, portable[i][j], got[i][j])
			}
		}
	})
}

// arenaVsHeap is one path's comparison; it returns, in order, every output it
// compared (inference output, training output, input gradient, parameter
// gradients, per iteration) as the arena network produced them.
func arenaVsHeap[F tensor.Float](t *testing.T, path string, build func() (*NetworkOf[F], int), batch int) (outputs [][]F) {
	keep := func(v []F) { outputs = append(outputs, append([]F(nil), v...)) }
	heap, dim := build()
	arenaNet, _ := build()
	arena := tensor.NewArena()
	arenaNet.SetArena(arena)
	r := rng.New(11)
	input := func() *tensor.TensorOf[F] {
		x := tensor.NewOf[F](batch, dim)
		for i := range x.Data() {
			x.Data()[i] = F(r.Normal(0, 1))
		}
		return x
	}
	labels := randLabels(r, batch, 3)
	for iter := 0; iter < 3; iter++ {
		x := input()
		before := append([]F(nil), x.Data()...)
		arena.Reset()
		le, la := heap.Forward(x, false), arenaNet.Forward(x, false)
		if i := sameBits(le.Data(), la.Data()); i >= 0 {
			t.Fatalf("%s iter %d: inference forward diverges at %d: %v vs %v", path, iter, i, le.Data()[i], la.Data()[i])
		}
		if i := sameBits(before, x.Data()); i >= 0 {
			t.Fatalf("%s iter %d: the inference pass released or wrote to its own input (at %d)", path, iter, i)
		}
		keep(la.Data())

		arena.Reset()
		heap.ZeroGrad()
		arenaNet.ZeroGrad()
		lh, lt := heap.Forward(x, true), arenaNet.Forward(x, true)
		if i := sameBits(lh.Data(), lt.Data()); i >= 0 {
			t.Fatalf("%s iter %d: training forward diverges at %d: %v vs %v", path, iter, i, lh.Data()[i], lt.Data()[i])
		}
		keep(lt.Data())
		_, dh := softmaxCrossEntropy(lh, labels)
		_, da := softmaxCrossEntropy(lt, labels)
		// Layer by layer, so that the first layer's input gradient is
		// compared too (Network.Backward leaves it out).
		dxh, dxa := layerwiseBackward(heap, dh), layerwiseBackward(arenaNet, da)
		if i := sameBits(dxh.Data(), dxa.Data()); i >= 0 {
			t.Fatalf("%s iter %d: input gradient diverges at %d: %v vs %v", path, iter, i, dxh.Data()[i], dxa.Data()[i])
		}
		keep(dxa.Data())
		hp, ap := heap.Params(), arenaNet.Params()
		for p := range hp {
			if i := sameBits(hp[p].Grad.Data(), ap[p].Grad.Data()); i >= 0 {
				t.Fatalf("%s iter %d: grad %s[%d] diverges: %v vs %v", path, iter, hp[p].Name, i, hp[p].Grad.Data()[i], ap[p].Grad.Data()[i])
			}
			keep(ap[p].Grad.Data())
		}
	}
	return outputs
}

// trainEvalTrain is the runner's arena sharing in small: a training network
// and a second one that only runs inference take turns on one arena — train,
// evaluate, train, evaluate, train, the evaluation at a larger batch — and
// every output and parameter gradient equals that of a heap twin. Backward
// runs through Network.Backward, the chain that hands gradients back early.
func trainEvalTrain[F tensor.Float](t *testing.T, what string, build func() (*NetworkOf[F], int)) {
	heapTrain, dim := build()
	heapEval, _ := build()
	train, _ := build()
	eval, _ := build()
	arena := tensor.NewArena()
	train.SetArena(arena)
	eval.SetArena(arena)
	r := rng.New(13)
	for step := 0; step < 5; step++ {
		batch := 5
		if step%2 == 1 {
			batch = 7
		}
		x := tensor.NewOf[F](batch, dim)
		for i := range x.Data() {
			x.Data()[i] = F(r.Normal(0, 1))
		}
		arena.Reset()
		if step%2 == 1 {
			if i := sameBits(heapEval.Forward(x, false).Data(), eval.Forward(x, false).Data()); i >= 0 {
				t.Fatalf("%s step %d: evaluation diverges at %d", what, step, i)
			}
			continue
		}
		heapTrain.ZeroGrad()
		train.ZeroGrad()
		lh, la := heapTrain.Forward(x, true), train.Forward(x, true)
		if i := sameBits(lh.Data(), la.Data()); i >= 0 {
			t.Fatalf("%s step %d: training forward diverges at %d", what, step, i)
		}
		labels := randLabels(r, batch, 3)
		_, dh := softmaxCrossEntropy(lh, labels)
		_, da := softmaxCrossEntropy(la, labels)
		heapTrain.Backward(dh)
		train.Backward(da)
		hp, ap := heapTrain.Params(), train.Params()
		for p := range hp {
			if i := sameBits(hp[p].Grad.Data(), ap[p].Grad.Data()); i >= 0 {
				t.Fatalf("%s step %d: grad %s[%d] diverges: %v vs %v", what, step, hp[p].Name, i, hp[p].Grad.Data()[i], ap[p].Grad.Data()[i])
			}
		}
	}
}

// TestArenaMatchesHeapExactly: binding an arena changes where scratch lives,
// and the kernel path how fast it is filled, never what it holds — inference
// outputs, training outputs, input gradients and parameter gradients are
// bit-identical between the heap-allocated and the arena-bound network, and
// between the portable and the vector kernels, for every layer type at both
// dtypes; the LSTM also at one and two layers, hidden sizes with and without a
// vector tail, batch 1 and 32; and with a training and an inference network
// taking turns on one arena.
func TestArenaMatchesHeapExactly(t *testing.T) {
	t.Run("f64", testArenaMatchesHeap[float64])
	t.Run("f32", testArenaMatchesHeap[float32])
}

// lossOf32 evaluates the scalar training loss of a float32 network.
func lossOf32(net *NetworkOf[float32], x *tensor.TensorOf[float32], labels []int) float64 {
	logits := net.Forward(x, true)
	loss, _ := softmaxCrossEntropy(logits, labels)
	return loss
}

// TestGradCheckFloat32 verifies the float32 analytic gradients against
// central finite differences. The step and tolerance scale with float32
// machine epsilon (h ≈ ε^⅓ ≈ 5e-3, against 1e-5 at float64): smaller steps
// drown in rounding, larger ones in truncation.
func TestGradCheckFloat32(t *testing.T) {
	r := rng.New(2)
	net := NewNetworkOf[float32](
		NewDenseOf[float32]("fc1", 6, 5, r),
		NewReLUOf[float32](5),
		NewDenseOf[float32]("fc2", 5, 3, r),
	)
	x := tensor.NewOf[float32](4, 6)
	for i := range x.Data() {
		x.Data()[i] = float32(r.Normal(0, 1))
	}
	labels := randLabels(r, 4, 3)

	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, dlogits := softmaxCrossEntropy(logits, labels)
	net.Backward(dlogits)

	const eps = 5e-3
	const tol = 2e-2
	cr := rng.New(12345)
	for _, p := range net.Params() {
		d := p.Value.Data()
		g := p.Grad.Data()
		n := len(d)
		checks := 6
		if checks > n {
			checks = n
		}
		for c := 0; c < checks; c++ {
			i := cr.Intn(n)
			orig := d[i]
			d[i] = orig + eps
			lp := lossOf32(net, x, labels)
			d[i] = orig - eps
			lm := lossOf32(net, x, labels)
			d[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(g[i])) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: analytic %v, numeric %v", p.Name, i, g[i], num)
			}
		}
	}
}
