package tensor

import (
	"fmt"
	"sync"
	"unsafe"

	"fedca/internal/cputok"
)

// parallelThresholdBytes is the minimum amount of multiply-accumulate work —
// measured in bytes of operand traffic, MACs × sizeof(element) — below which
// a kernel stays single-threaded: spawning goroutines for tiny products costs
// more than it saves. Making the cutoff byte-based instead of element-based
// keeps the fan-out point aligned with actual work across dtypes: a float32
// GEMM moves half the bytes per MAC, so it should need twice the elements of
// a float64 GEMM before parallelism pays.
const parallelThresholdBytes = 1 << 20

// ParallelThresholdFor returns the MAC-count threshold for element type F
// (m·n·k for a GEMM, batch·pos·patch·outC for a batched convolution):
// parallelThresholdBytes scaled by the element size (1<<17 for float64, 1<<18
// for float32). tensor.parallelRows and nn's convolution share it, so the two
// layers agree on what "heavy" means.
func ParallelThresholdFor[F Float]() int {
	return parallelThresholdBytes / sizeofF[F]()
}

func sizeofF[F Float]() int {
	var z F
	return int(unsafe.Sizeof(z))
}

// Tile geometry. Every product runs as C = Aop·B with B in packed panels
// (see below) and Aop read in place through two strides, so the three
// orientations share one driver and one micro-kernel per (dtype, path):
//
//	dtype    panel width NR  AVX2 tile (rows × NR)   portable tile
//	float64  8  (2 × YMM)    4 × 8, 8 accumulators   2 × 4 over half-panels
//	float32  16 (2 × YMM)    4 × 16, 8 accumulators  2 × 4 over quarter-panels
//
// One panel row is 64 bytes at either dtype. The tile is short and wide
// because that is the traffic the models issue: m is 6–16 output channels or
// a batch of 10–32 rows, n is 64–256 positions or features, k runs from 6 to
// 256. Four rows split 6, 10 and 16 without a wasted row (the assembly has
// 4-, 3-, 2- and 1-row tiles), and two vectors per row give eight independent
// ascending-k chains, enough to cover the add latency with separate multiply
// and add. On the ragged last panel of an n that NR does not divide, a
// half-panel form of the same tiles (one vector per row) does half the
// arithmetic when at most NR/2 columns are left: n = 24 or 120 at float32
// would otherwise spend a full panel on eight columns. The panel width is a
// property of the dtype, not of the path, so a packed operand is valid
// whichever kernel consumes it.
const (
	gemmMR   = 4  // rows per AVX2 tile; parallel row blocks are multiples of it
	gemmNR64 = 8  // float64 panel width
	gemmNR32 = 16 // float32 panel width
	edgeRows = 16 // rows per assembly call on the ragged last panel (a stack block)
)

// gemmNROf returns the B-panel width for element type F.
func gemmNROf[F Float]() int {
	if sizeofF[F]() == 4 {
		return gemmNR32
	}
	return gemmNR64
}

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n), writing into
// dst (m×n). dst must not alias A or B. B is packed once into NR-wide column
// panels shared read-only by every row block; rows of C are then computed in
// parallel across workers borrowed from the process CPU-token budget
// (internal/cputok). Results are bit-identical at any token count and on
// either kernel path: each output row is written by exactly one worker, and
// every element accumulates its products in ascending-k order, each product
// rounded before it is added (never fused).
func MatMul[F Float](dst, a, b *TensorOf[F]) {
	m, k, n := checkMatMul(dst, a, b, false, false)
	packed := getPack[F](packLen[F](k, n))
	packPanels(packed.s, b.data, k, n)
	gemmPacked(dst.data, a.data, k, 1, packed.s, m, k, n)
	putPack(packed)
}

// MatMulTransA computes C = Aᵀ·B where A is (k×m), B is (k×n), dst is (m×n).
// A is read in place, column by column; only B is packed.
func MatMulTransA[F Float](dst, a, b *TensorOf[F]) {
	m, k, n := checkMatMul(dst, a, b, true, false)
	packed := getPack[F](packLen[F](k, n))
	packPanels(packed.s, b.data, k, n)
	gemmPacked(dst.data, a.data, 1, m, packed.s, m, k, n)
	putPack(packed)
}

// MatMulTransB computes C = A·Bᵀ where A is (m×k), B is (n×k), dst is (m×n).
// The vector lanes run along n, so B's rows are transposed into panels on the
// way in; the k·n element pass amortizes over the m·n·k multiply-adds.
func MatMulTransB[F Float](dst, a, b *TensorOf[F]) {
	m, k, n := checkMatMul(dst, a, b, false, true)
	packed := getPack[F](packLen[F](k, n))
	packPanelsT(packed.s, b.data, k, n)
	gemmPacked(dst.data, a.data, k, 1, packed.s, m, k, n)
	putPack(packed)
}

func checkMatMul[F Float](dst, a, b *TensorOf[F], transA, transB bool) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	am, ak := a.shape[0], a.shape[1]
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.shape[0], b.shape[1]
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch: %d vs %d", ak, bk))
	}
	if dst.shape[0] != am || dst.shape[1] != bn {
		panic(fmt.Sprintf("tensor: MatMul dst shape %v, want [%d %d]", dst.shape, am, bn))
	}
	return am, ak, bn
}

// gemmArgs carries one GEMM call's operands through the row fan-out:
// C[i][j] = Σ_p a[i·ars + p·aps] · B[p][j] with B in packed panels. The two
// strides select the orientation of A — (k, 1) reads rows of an m×k matrix,
// (1, m) reads columns of a k×m one — so nothing is ever copied on A's side.
// The struct is pooled: a stack-local leaked to worker goroutines would
// escape on every call, which the steady-state zero-alloc guarantee forbids.
type gemmArgs[F Float] struct {
	c, a, b  []F
	ars, aps int
	m, k, n  int
	chunk    int // rows per fan-out item, whole tiles
}

var (
	gemmArgsPool64 sync.Pool
	gemmArgsPool32 sync.Pool
)

func gemmArgsPoolOf[F Float]() *sync.Pool {
	if sizeofF[F]() == 4 {
		return &gemmArgsPool32
	}
	return &gemmArgsPool64
}

// gemmPacked computes C[m×n] = Aop·B with B already in packed panels,
// fanning row blocks out across borrowed CPU tokens when the product is
// heavy.
func gemmPacked[F Float](c, a []F, ars, aps int, packed []F, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(c[:m*n])
		return
	}
	g, _ := gemmArgsPoolOf[F]().Get().(*gemmArgs[F])
	if g == nil {
		g = &gemmArgs[F]{}
	}
	*g = gemmArgs[F]{c: c, a: a, b: packed, ars: ars, aps: aps, m: m, k: k, n: n}
	parallelRows(g)
	*g = gemmArgs[F]{} // don't pin caller buffers from the pool
	gemmArgsPoolOf[F]().Put(g)
}

// parallelRows runs the kernel over row blocks of [0, g.m), borrowing extra
// workers from the shared CPU-token budget when the call's total MACs exceed
// the per-dtype parallel threshold, and cutting the rows into one block of
// whole tiles per worker. The calling goroutine is always the first worker,
// so a fully spent budget degrades to the serial path instead of blocking.
func parallelRows[F Float](g *gemmArgs[F]) {
	m := g.m
	if g.m*g.n*g.k < ParallelThresholdFor[F]() || m <= gemmMR {
		gemmRows(g, 0, m)
		return
	}
	budget := cputok.Default()
	extra := budget.Borrow(min(budget.Cap(), (m+gemmMR-1)/gemmMR) - 1)
	workers := extra + 1
	g.chunk = ((m+workers-1)/workers + gemmMR - 1) / gemmMR * gemmMR
	budget.Run(extra, (m+g.chunk-1)/g.chunk, g)
}

// Do computes row block i. The fan-out calls gemmRows directly: a function
// value of a generic function would be a dictionary-bound closure, one heap
// allocation per GEMM call.
func (g *gemmArgs[F]) Do(i, _ int) {
	gemmRows(g, i*g.chunk, min((i+1)*g.chunk, g.m))
}

// gemmRows computes rows [lo, hi) of C, one B panel at a time: the panel
// (k × 64 bytes) stays in L1 while the rows of A stream past it. This is the
// only place the two kernel paths part: useAVX2 is what the CPU reported at
// start-up (gemm_amd64.go), and the portable kernel is the fallback. Both are
// held to the same ascending-k definition.
func gemmRows[F Float](g *gemmArgs[F], lo, hi int) {
	nr := gemmNROf[F]()
	k, n := g.k, g.n
	for j0 := 0; j0 < n; j0 += nr {
		panel := g.b[j0*k : j0*k+k*nr]
		w := min(nr, n-j0)
		switch {
		case !useAVX2:
			gemmPanelGo(g, panel, nr, j0, w, lo, hi)
		case w == nr:
			gemmPanelAVX2(false, hi-lo, k, &g.a[lo*g.ars], g.ars, g.aps, &panel[0], &g.c[lo*n+j0], n)
		default:
			// The assembly stores whole panel rows (or half rows, which it
			// also computes in half the time, when that covers the columns
			// left). At n's ragged edge it writes a block of rows to the
			// stack and the valid columns are copied out, so C is never
			// written past a row's end.
			var block [edgeRows * gemmNR32]F
			for i := lo; i < hi; i += edgeRows {
				mr := min(edgeRows, hi-i)
				gemmPanelAVX2(2*w <= nr, mr, k, &g.a[i*g.ars], g.ars, g.aps, &panel[0], &block[0], nr)
				for r := 0; r < mr; r++ {
					src := block[r*nr : r*nr+w]
					dst := g.c[(i+r)*n+j0 : (i+r)*n+j0+w]
					for j, v := range src {
						dst[j] = v
					}
				}
			}
		}
	}
}

// gemmPanelGo is the portable micro-kernel: rows [lo, hi) of C against the w
// valid columns of one panel, in 2×4 register tiles over 4-wide slices of the
// panel. Every product is rounded by an explicit conversion before it is
// added — the Go specification forbids fusing across one — so the result is
// the same ascending-k chain on amd64, arm64 (which would otherwise emit
// FMADD) and anything else, and equal bit for bit to the AVX2 path, which
// issues separate VMULP*/VADDP* for the same reason.
func gemmPanelGo[F Float](g *gemmArgs[F], panel []F, nr, j0, w, lo, hi int) {
	c, a, ars, aps, k, n := g.c, g.a, g.ars, g.aps, g.k, g.n
	for h := 0; h < w; h += 4 {
		hw := min(4, w-h)
		i := lo
		for ; i+2 <= hi; i += 2 {
			var acc00, acc01, acc02, acc03 F
			var acc10, acc11, acc12, acc13 F
			ia0, ia1 := i*ars, (i+1)*ars
			for p := 0; p < k; p++ {
				bp := panel[p*nr+h : p*nr+h+4 : p*nr+h+4]
				av0, av1 := a[ia0], a[ia1]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				acc00 += F(av0 * b0)
				acc01 += F(av0 * b1)
				acc02 += F(av0 * b2)
				acc03 += F(av0 * b3)
				acc10 += F(av1 * b0)
				acc11 += F(av1 * b1)
				acc12 += F(av1 * b2)
				acc13 += F(av1 * b3)
				ia0 += aps
				ia1 += aps
			}
			storeTile4(c[i*n+j0+h:], hw, acc00, acc01, acc02, acc03)
			storeTile4(c[(i+1)*n+j0+h:], hw, acc10, acc11, acc12, acc13)
		}
		if i < hi {
			var acc0, acc1, acc2, acc3 F
			ia := i * ars
			for p := 0; p < k; p++ {
				bp := panel[p*nr+h : p*nr+h+4 : p*nr+h+4]
				av := a[ia]
				acc0 += F(av * bp[0])
				acc1 += F(av * bp[1])
				acc2 += F(av * bp[2])
				acc3 += F(av * bp[3])
				ia += aps
			}
			storeTile4(c[i*n+j0+h:], hw, acc0, acc1, acc2, acc3)
		}
	}
}

// storeTile4 writes the first w (1–4) values of one accumulator row.
func storeTile4[F Float](c []F, w int, v0, v1, v2, v3 F) {
	switch w {
	case 1:
		c[0] = v0
	case 2:
		c[0], c[1] = v0, v1
	case 3:
		c[0], c[1], c[2] = v0, v1, v2
	default:
		c[0], c[1], c[2], c[3] = v0, v1, v2, v3
	}
}

// ---- packed-panel layout ----------------------------------------------------
//
// B (k×n) is held as ⌈n/NR⌉ panels, NR = gemmNROf[F]. Panel pj holds columns
// [pj·NR, pj·NR+NR) as k consecutive NR-wide rows:
//
//	packed[pj·k·NR + p·NR + jj] = B[p][pj·NR + jj]
//
// so the micro-kernel streams one perfectly contiguous panel per output tile
// instead of striding across B's full row length. Panels past n's edge are
// zero-filled; the micro-kernel computes the padded columns and they are
// never stored. A pack runs once per operand and is shared read-only by every
// row block and worker.

func packLen[F Float](k, n int) int {
	nr := gemmNROf[F]()
	return k * ((n + nr - 1) / nr) * nr
}

// packPanels packs a row-major k×n B.
func packPanels[F Float](dst, b []F, k, n int) {
	nr := gemmNROf[F]()
	if k == 0 {
		return
	}
	full := n / nr * nr
	for j0 := 0; j0 < full; j0 += nr {
		copyPanelRows(dst[j0*k:], nr, b[j0:], n, k, nr)
	}
	if full < n {
		copyPanelRows(dst[full*k:], nr, b[full:], n, k, n-full)
	}
}

// copyPanelRows fills n panel rows — 64 bytes each at either dtype — row i
// from the w elements at src[i·srcStride:] to dst[i·dstStride:], zero-filling
// lanes w to NR. Strides are in elements. The assembly moves a row as two
// vector loads and stores (masked loads when w < NR) where the portable loop
// pays a memmove call per row.
func copyPanelRows[F Float](dst []F, dstStride int, src []F, srcStride, n, w int) {
	if n <= 0 {
		return
	}
	nr := gemmNROf[F]()
	_, _ = dst[(n-1)*dstStride+nr-1], src[(n-1)*srcStride+w-1] // the assembly checks no bounds
	if !useAVX2 {
		for ; n > 0; n-- {
			clear(dst[copy(dst[:nr], src[:w]):nr])
			if n > 1 {
				dst, src = dst[dstStride:], src[srcStride:]
			}
		}
		return
	}
	sz := sizeofF[F]()
	d, s := unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0])
	if w == nr {
		copyBlocksAVX2(d, s, n, dstStride*sz, srcStride*sz)
		return
	}
	var mask [16]int32
	for i := range mask[:w*sz/4] {
		mask[i] = -1
	}
	copyBlocksMaskedAVX2(d, s, n, dstStride*sz, srcStride*sz, &mask)
}

// packPanelsT packs Bᵀ from B stored n×k row-major:
// dst[pj·k·NR + p·NR + jj] = B[pj·NR+jj][p]. Eight rows of B are read side by
// side so that every store run is contiguous; a store per element, each to
// another cache line, is several times slower.
func packPanelsT[F Float](dst, b []F, k, n int) {
	nr := gemmNROf[F]()
	if k == 0 {
		return
	}
	for j0 := 0; j0 < n; j0 += nr {
		out := dst[j0*k : j0*k+k*nr]
		w := min(nr, n-j0)
		if w < nr {
			clear(out)
		}
		jj := 0
		for ; jj+8 <= w; jj += 8 {
			interleave8(out[jj:], nr, b[(j0+jj)*k:(j0+jj+8)*k], k)
		}
		for ; jj < w; jj++ {
			o := jj
			for _, v := range b[(j0+jj)*k : (j0+jj+1)*k] {
				out[o] = v
				o += nr
			}
		}
	}
}

// interleave8 writes dst[p·stride + r] = rows[r·k + p] for r < 8, p < k: eight
// rows of length k become k runs of eight. The assembly transposes 4×4
// (float64) or 8×8 (float32) blocks in registers; the portable loop, which
// also finishes the assembly's tail, checks the slices once and walks raw
// pointers — with nine slice headers live the compiler spills every index and
// bounds test onto the stack, which costs half the loop's time.
func interleave8[F Float](dst []F, stride int, rows []F, k int) {
	_, _ = dst[(k-1)*stride+7], rows[8*k-1]
	sz := uintptr(sizeofF[F]())
	row := uintptr(k) * sz
	step := uintptr(stride) * sz
	r0 := unsafe.Pointer(&rows[0])
	d := unsafe.Pointer(&dst[0])
	off := uintptr(0)
	if useAVX2 {
		off = row &^ 31 // whole 32-byte register loads: 4 doubles or 8 floats
		if sz == 4 {
			interleave8AVX2F32(d, r0, int(off/sz), int(step), int(row))
		} else {
			interleave8AVX2F64(d, r0, int(off/sz), int(step), int(row))
		}
		d = unsafe.Add(d, off/sz*step)
	}
	r1, r2, r3 := unsafe.Add(r0, row), unsafe.Add(r0, 2*row), unsafe.Add(r0, 3*row)
	r4, r5, r6, r7 := unsafe.Add(r0, 4*row), unsafe.Add(r0, 5*row), unsafe.Add(r0, 6*row), unsafe.Add(r0, 7*row)
	for ; off < row; off += sz {
		run := (*[8]F)(d)
		run[0] = *(*F)(unsafe.Add(r0, off))
		run[1] = *(*F)(unsafe.Add(r1, off))
		run[2] = *(*F)(unsafe.Add(r2, off))
		run[3] = *(*F)(unsafe.Add(r3, off))
		run[4] = *(*F)(unsafe.Add(r4, off))
		run[5] = *(*F)(unsafe.Add(r5, off))
		run[6] = *(*F)(unsafe.Add(r6, off))
		run[7] = *(*F)(unsafe.Add(r7, off))
		d = unsafe.Add(d, step)
	}
}

// packScratch pools pack buffers (one pool per dtype) so steady-state GEMMs
// allocate nothing. Entries are pointer-shaped (*packBuf) because putting a
// bare slice into a sync.Pool boxes its header on every Put — one hidden heap
// allocation per GEMM, which the steady-state zero-alloc guarantee forbids.
var (
	packScratch64 sync.Pool
	packScratch32 sync.Pool
)

// packBuf is one pooled pack buffer.
type packBuf[F Float] struct{ s []F }

func packPoolOf[F Float]() *sync.Pool {
	if sizeofF[F]() == 4 {
		return &packScratch32
	}
	return &packScratch64
}

func getPack[F Float](n int) *packBuf[F] {
	p := packPoolOf[F]()
	if v := p.Get(); v != nil {
		if b := v.(*packBuf[F]); cap(b.s) >= n {
			b.s = b.s[:n]
			return b
		}
	}
	return &packBuf[F]{s: make([]F, n)}
}

func putPack[F Float](b *packBuf[F]) {
	packPoolOf[F]().Put(b)
}

// ---- pre-packed B operand ---------------------------------------------------

// PackedBOf is operand B of a C = A·B GEMM in the panel layout the kernels
// consume. Packing is the only per-call preparation MatMul does on B, so a
// caller multiplying several A's against one B — or producing B directly in
// packed form, as Conv2D's two im2col passes do — writes it once and reuses
// it across calls and row blocks.
type PackedBOf[F Float] struct {
	data []F
	k, n int
	img  paddedImage[F] // the im2col writers' zero-padded copy of the image
}

// NewPackedBOf allocates a packed operand for a k×n B of element type F.
func NewPackedBOf[F Float](k, n int) *PackedBOf[F] {
	return &PackedBOf[F]{data: make([]F, packLen[F](k, n)), k: k, n: n}
}

// Pack fills pb from a k×n tensor.
func (pb *PackedBOf[F]) Pack(b *TensorOf[F]) {
	if b.Rank() != 2 || b.shape[0] != pb.k || b.shape[1] != pb.n {
		panic(fmt.Sprintf("tensor: PackedB.Pack shape %v, want [%d %d]", b.shape, pb.k, pb.n))
	}
	packPanels(pb.data, b.data, pb.k, pb.n)
}

// PackTrans fills pb with Bᵀ from an n×k tensor: MatMulPacked against it is
// MatMulTransB against b.
func (pb *PackedBOf[F]) PackTrans(b *TensorOf[F]) {
	if b.Rank() != 2 || b.shape[0] != pb.n || b.shape[1] != pb.k {
		panic(fmt.Sprintf("tensor: PackedB.PackTrans shape %v, want [%d %d]", b.shape, pb.n, pb.k))
	}
	packPanelsT(pb.data, b.data, pb.k, pb.n)
}

// MatMulPacked computes C = A·B with B already packed: identical results to
// MatMul (same kernel, same accumulation order), minus the packing pass.
func MatMulPacked[F Float](dst, a *TensorOf[F], pb *PackedBOf[F]) {
	if a.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMulPacked requires 2-D tensors")
	}
	m := a.shape[0]
	if a.shape[1] != pb.k {
		panic(fmt.Sprintf("tensor: MatMulPacked inner dimension mismatch: %d vs %d", a.shape[1], pb.k))
	}
	if dst.shape[0] != m || dst.shape[1] != pb.n {
		panic(fmt.Sprintf("tensor: MatMulPacked dst shape %v, want [%d %d]", dst.shape, m, pb.n))
	}
	gemmPacked(dst.data, a.data, pb.k, 1, pb.data, m, pb.k, pb.n)
}
