package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Arena is a bump allocator for per-iteration layer scratch: forward and
// backward activations, gradients of intermediates, masks, argmax indices and
// the convolutions' patch matrices. Layers draw from it instead of make, the
// training loop calls Reset once per iteration, and once a first iteration
// has grown the arena to the model's high-water demand, a steady-state
// training step performs zero heap allocations. Tensor headers and shape
// slices are bump-allocated too, so AllocOf itself is allocation-free in
// steady state.
//
// Every byte the arena holds is made once. Each element type has a slab, a
// list of chunks: an allocation is cut from the first chunk with room for it,
// and one that fits in none adds a chunk, which the slab keeps. Reset rewinds
// the chunks; nothing is re-made, copied or dropped, so what an arena retains
// is exactly what it has ever allocated. The two float types share one slab
// counted in 8-byte words — a float32 request is rounded up to whole words,
// so every buffer stays 8-byte aligned — and a released buffer serves either:
// a float32 run's training is cut from the chunks its float64 evaluation
// laid out. Masks and argmax indices keep slabs of their own; small pieces
// in the float slab split the large released activations.
//
// Two allocations exist. The zeroing one (AllocOf, Float64) is for buffers
// whose consumer accumulates into them; the non-zeroing one (AllocUninitOf,
// ArenaSliceUninit, Int32Uninit, BoolsUninit) is for buffers whose producer
// writes every element before anything reads one, which is most of them, and
// skips a pass over memory that is about to be overwritten.
//
// A forward pass does not need every activation until Reset — an inference
// pass none once consumed, a training pass only those backward reads — nor a
// backward pass a gradient once the next layer has consumed it: ReleaseOf
// hands one tensor's storage back early, and a later allocation that fits —
// zeroing or not — is cut from it instead of bumping. A chain of layers then
// runs in the space of the few tensors that are live at once.
//
// An Arena is NOT safe for concurrent use. The ownership model mirrors the
// fleet's client slots: each worker network owns one arena, and sample-level
// parallel loops inside a layer write into disjoint sub-slices of buffers
// that were allocated by the (serial) layer code.
//
// Reset invalidates every outstanding allocation at once by bumping the
// arena's generation. Consumers that hold scratch across calls (a layer's
// forward cache read by backward) record the generation at allocation time
// and call CheckGen before reading, so a stale read panics loudly instead of
// silently consuming another iteration's data.
type Arena struct {
	floats slab[float64] // both float types, in 8-byte words
	i32    slab[int32]
	bools  slab[bool]
	dims   slab[int]
	t64    slab[TensorOf[float64]]
	t32    slab[TensorOf[float32]]
	p64    slab[PackedBOf[float64]]
	p32    slab[PackedBOf[float32]]
	gen    uint64
}

// poison makes every non-zeroing allocation and every release fill the
// memory with a value no layer can mistake for data (NaN, argmax −1, mask
// true), so a test comparing against the heap path catches a buffer that is
// read before it is written or after it is released; and it makes a release
// of storage already released panic (slab.checkNotFree). Tests set it;
// nothing else does.
var poison bool

// A chunk a slab adds is at least chunkFloor bytes, so that a slab of
// headers or shapes grows by pages, not by one element at a time.
//
// Past the floor, a chunk added part-way through a generation also makes
// room for as much again as the generation has bumped so far — but for no
// more than chunkPieces pieces of the size that opened it, and no more than
// chunkGrowthCap bytes. A generation of many small pieces then lands in a
// few chunks rather than one per piece; a small piece (a convolution's
// scratch) never opens a chunk much larger than itself, which a large piece
// could not use; and a generation of a few large pieces gets chunks close
// to its own size. The caps keep the largest generation tight: on a
// runner's worker 0 that is the evaluation batch, which lays out the chunks
// every later training iteration is cut from (fl.NewFleetRunner), and
// uncapped growth there held more, not less (DESIGN §15).
const (
	chunkFloor     = 4 << 10
	chunkPieces    = 16
	chunkGrowthCap = 4 << 20
)

// chunkBytes rounds a chunk of n ≥ chunkFloor bytes up to what the runtime
// allocates for it anyway — 4 KB, or whole 8 KB pages, each of them a size
// class up to 32 KB and a page run beyond — so the rounding is room in the
// chunk rather than slack beside it.
func chunkBytes(n int) int {
	if n <= chunkFloor {
		return chunkFloor
	}
	return (n + 8<<10 - 1) &^ (8<<10 - 1)
}

// slab is one type's chunk list. off[i] is how much of chunks[i] the current
// generation has bumped; demand is the elements bumped since the last Reset.
// free holds the buffers released since the last reset; its backing array,
// like the chunk list, survives resets, so neither bumping nor releasing
// allocates in steady state.
type slab[T any] struct {
	chunks [][]T
	off    []int
	demand int
	free   [][]T
}

func (s *slab[T]) alloc(n int, zero bool) []T {
	// Best fit among the released buffers: the shortest that is long enough.
	// One of exactly n is taken whole; a longer one gives up its first n
	// elements and stays on the list with the rest, so the space a wide
	// activation leaves serves the narrower ones further down the network.
	best := -1
	for i, v := range s.free {
		if len(v) >= n && (best < 0 || len(v) < len(s.free[best])) {
			best = i
		}
	}
	var v []T
	if best >= 0 {
		v = s.free[best][:n:n]
		if rest := s.free[best][n:]; len(rest) > 0 {
			s.free[best] = rest
		} else {
			last := len(s.free) - 1
			s.free[best] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
		}
	} else {
		v = s.bump(n)
	}
	if zero {
		clear(v)
	}
	return v
}

// bump cuts n elements from the first chunk with room for them, or from a
// new chunk sized as chunkFloor's comment describes.
func (s *slab[T]) bump(n int) []T {
	bumped := s.demand
	s.demand += n
	for i, c := range s.chunks {
		if o := s.off[i]; o+n <= len(c) {
			s.off[i] = o + n
			return c[o : o+n : o+n]
		}
	}
	var z T
	size := int(unsafe.Sizeof(z))
	c := make([]T, chunkBytes(size*max(n, chunkFloor/size, min(bumped, chunkPieces*n, chunkGrowthCap/size)))/size)
	s.chunks = append(s.chunks, c)
	s.off = append(s.off, n)
	return c[:n:n]
}

func (s *slab[T]) release(v []T) {
	if len(v) == 0 {
		return
	}
	if poison {
		s.checkNotFree(v)
	}
	s.free = append(s.free, v)
}

// checkNotFree panics if v overlaps a buffer already on the free list: the
// same storage released twice, through a second header over it. Releasing
// one header twice cannot get here, since ReleaseOf empties the header it
// releases. Only tests pay for the walk (poison).
func (s *slab[T]) checkNotFree(v []T) {
	var z T
	size := unsafe.Sizeof(z)
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	hi := lo + uintptr(len(v))*size
	for _, f := range s.free {
		flo := uintptr(unsafe.Pointer(unsafe.SliceData(f)))
		if lo < flo+uintptr(len(f))*size && flo < hi {
			panic(fmt.Sprintf("tensor: released %d elements overlap %d already released: storage released twice", len(v), len(f)))
		}
	}
}

func (s *slab[T]) reset() {
	clear(s.off)
	s.demand = 0
	clear(s.free)
	s.free = s.free[:0]
}

// retained returns the bytes s's chunks hold.
func (s *slab[T]) retained() int {
	var z T
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n * int(unsafe.Sizeof(z))
}

// demandBytes returns the bytes a has handed out since the last Reset other
// than from released buffers, over every slab. Tests read it through
// go:linkname; nothing else does.
var demandBytes = func(a *Arena) int {
	return 8*a.floats.demand + 4*a.i32.demand + a.bools.demand + 8*a.dims.demand +
		int(unsafe.Sizeof(TensorOf[float64]{}))*a.t64.demand + int(unsafe.Sizeof(TensorOf[float32]{}))*a.t32.demand +
		int(unsafe.Sizeof(PackedBOf[float64]{}))*a.p64.demand + int(unsafe.Sizeof(PackedBOf[float32]{}))*a.p32.demand
}

// heldBytes returns the bytes a has handed out since the last Reset and not
// had back: demandBytes less the released buffers no allocation has taken
// again. Tests read it through go:linkname; nothing else does.
var heldBytes = func(a *Arena) int {
	free := 0
	for _, v := range a.floats.free {
		free += 8 * len(v)
	}
	return demandBytes(a) - free
}

// retainedBytes returns the bytes a's chunks hold over every slab: all the
// memory the arena keeps from one generation to the next, and all it has
// ever allocated. Tests read it through go:linkname; nothing else does.
var retainedBytes = func(a *Arena) int {
	return a.floats.retained() + a.i32.retained() + a.bools.retained() + a.dims.retained() +
		a.t64.retained() + a.t32.retained() + a.p64.retained() + a.p32.retained()
}

// NewArena returns an empty arena; slabs grow on first use.
func NewArena() *Arena { return &Arena{} }

// Reset recycles every allocation made since the previous Reset and starts a
// new generation. The chunks are kept, so allocation falls to zero once a
// full iteration has run.
func (a *Arena) Reset() {
	a.floats.reset()
	a.i32.reset()
	a.bools.reset()
	a.dims.reset()
	a.t64.reset()
	a.t32.reset()
	a.p64.reset()
	a.p32.reset()
	a.gen++
}

// Gen returns the current generation, incremented by every Reset. Consumers
// holding arena memory across calls record it and pass it to CheckGen before
// reading.
func (a *Arena) Gen() uint64 { return a.gen }

// CheckGen panics if the arena has been Reset since generation gen was
// recorded: the memory the caller is about to read has been recycled.
func (a *Arena) CheckGen(gen uint64, owner string) {
	if a.gen != gen {
		panic(fmt.Sprintf("tensor: %s reads arena scratch from generation %d after Reset (now %d): stale scratch", owner, gen, a.gen))
	}
}

// Float64 allocates a zeroed []float64 valid until the next Reset.
func (a *Arena) Float64(n int) []float64 { return a.floats.alloc(n, true) }

// Int32Uninit allocates an []int32 valid until the next Reset whose contents
// are arbitrary: the caller must write every element before reading any
// (pooling argmax).
func (a *Arena) Int32Uninit(n int) []int32 {
	v := a.i32.alloc(n, false)
	if poison {
		fill(v, -1)
	}
	return v
}

// BoolsUninit allocates a []bool valid until the next Reset whose contents
// are arbitrary: the caller must write every element before reading any (ReLU
// and dropout masks).
func (a *Arena) BoolsUninit(n int) []bool {
	v := a.bools.alloc(n, false)
	if poison {
		fill(v, true)
	}
	return v
}

// ArenaSliceUninit allocates an []F from the arena's slab for F whose
// contents are arbitrary: the caller must write every element before reading
// any.
func ArenaSliceUninit[F Float](a *Arena, n int) []F {
	v := arenaSlice[F](a, n, false)
	if poison {
		fill(v, F(math.NaN()))
	}
	return v
}

// arenaSlice reinterprets by element size, not interface conversion: boxing a
// slice into an any would heap-allocate its header on every call, and named
// ~float32/~float64 types would fail the assertion back.
func arenaSlice[F Float](a *Arena, n int, zero bool) []F {
	return unsafe.Slice((*F)(unsafe.Pointer(unsafe.SliceData(a.floats.alloc(words[F](n), zero)))), n)
}

// words returns how many 8-byte words n elements of F take.
func words[F Float](n int) int { return (n*sizeofF[F]() + 7) / 8 }

// AllocOf allocates a zeroed tensor whose storage — data, shape and the
// header itself — lives in the arena, valid until the next Reset.
func AllocOf[F Float](a *Arena, shape ...int) *TensorOf[F] {
	return newHeader(a, arenaSlice[F](a, checkShape(shape), true), shape)
}

// AllocUninitOf is AllocOf without the zeroing: the data is arbitrary and the
// caller must write every element before reading any.
func AllocUninitOf[F Float](a *Arena, shape ...int) *TensorOf[F] {
	return newHeader(a, ArenaSliceUninit[F](a, checkShape(shape)), shape)
}

func newHeader[F Float](a *Arena, data []F, shape []int) *TensorOf[F] {
	sh := a.dims.alloc(len(shape), false)
	copy(sh, shape)
	var t *TensorOf[F]
	if sizeofF[F]() == 4 {
		t = (*TensorOf[F])(unsafe.Pointer(&a.t32.alloc(1, false)[0]))
	} else {
		t = (*TensorOf[F])(unsafe.Pointer(&a.t64.alloc(1, false)[0]))
	}
	t.data, t.shape = data, sh
	return t
}

// ReleaseOf hands t's data back to a ahead of the next Reset: following
// allocations of up to its length reuse it. The caller must hold the only
// reference — t and every view of its data are dead from here on — and the
// data must not have been released already. The header and shape stay where
// they are until Reset; they are a few words.
func ReleaseOf[F Float](a *Arena, t *TensorOf[F]) {
	releaseSlice(a, t.data)
	t.data = nil
}

func releaseSlice[F Float](a *Arena, v []F) {
	if poison {
		fill(v, F(math.NaN()))
	}
	a.floats.release(unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(v))), words[F](len(v))))
}

// ViewOf returns a tensor of the given shape over data, which the arena
// does not own — one sample's rows of a batch buffer — with
// its header and shape bump-allocated from a, valid until the next Reset.
// len(data) must equal the shape's size. A view is never released: its data
// is not the arena's to hand out. With a nil arena the header comes from the
// heap.
func ViewOf[F Float](a *Arena, data []F, shape ...int) *TensorOf[F] {
	if n := checkShape(shape); len(data) != n {
		panic(fmt.Sprintf("tensor: ViewOf data length %d does not match shape size %d", len(data), n))
	}
	if a == nil {
		return &TensorOf[F]{data: data, shape: append([]int(nil), shape...)}
	}
	return newHeader(a, data, shape)
}

// AllocPackedOf returns a packed k×n operand for the im2col writers of
// geometry g whose panels, padded image and header all live in a, valid until
// ReleasePackedOf or the next Reset. The panels are arbitrary until a writer
// fills them; the padded image is zeroed, and its border and spare plane stay
// zero because the writers only ever write its interior.
func AllocPackedOf[F Float](a *Arena, g ConvGeom, k, n int) *PackedBOf[F] {
	pl := planOf(g)
	var pb *PackedBOf[F]
	if sizeofF[F]() == 4 {
		pb = (*PackedBOf[F])(unsafe.Pointer(&a.p32.alloc(1, false)[0]))
	} else {
		pb = (*PackedBOf[F])(unsafe.Pointer(&a.p64.alloc(1, false)[0]))
	}
	*pb = PackedBOf[F]{
		data: ArenaSliceUninit[F](a, packLen[F](k, n)), k: k, n: n,
		img: paddedImage[F]{geom: g, plan: pl, p: arenaSlice[F](a, (g.InC+1)*pl.hp*pl.wp, true)},
	}
	return pb
}

// ReleasePackedOf hands pb's panels and padded image back to a ahead of the
// next Reset, as ReleaseOf does a tensor's data; pb is dead from here on.
func ReleasePackedOf[F Float](a *Arena, pb *PackedBOf[F]) {
	releaseSlice(a, pb.data)
	releaseSlice(a, pb.img.p)
	*pb = PackedBOf[F]{}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
