package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Arena is a bump allocator for per-iteration layer scratch: forward and
// backward activations, gradients of intermediates, masks and argmax indices.
// Layers draw from it instead of make, the training loop calls Reset once per
// iteration, and after a warmup iteration has sized the slabs to the model's
// high-water demand, a steady-state training step performs zero heap
// allocations. Tensor headers and shape slices are bump-allocated too, so
// AllocOf itself is allocation-free in steady state.
//
// Two allocations exist. The zeroing one (AllocOf, Float64) is for buffers
// whose consumer accumulates into them; the non-zeroing one (AllocUninitOf,
// ArenaSliceUninit, Int32Uninit, BoolsUninit) is for buffers whose producer
// writes every element before anything reads one, which is most of them, and
// skips a pass over memory that is about to be overwritten.
//
// An inference pass does not need every activation until Reset, nor a
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
	f64   slab[float64]
	f32   slab[float32]
	i32   slab[int32]
	bools slab[bool]
	dims  slab[int]
	t64   slab[TensorOf[float64]]
	t32   slab[TensorOf[float32]]
	gen   uint64
}

// poison makes every non-zeroing allocation and every release fill the
// memory with a value no layer can mistake for data (NaN, argmax −1, mask
// true), so a test comparing against the heap path catches a buffer that is
// read before it is written or after it is released. Tests set it; nothing
// else does.
var poison bool

// slab is one type's bump region. If demand exceeds the buffer, alloc falls
// back to make (a warmup allocation) and reset regrows the buffer to the
// observed high-water demand so the next generation fits entirely. free holds
// the buffers released since the last reset; its backing array survives
// resets, so releasing allocates nothing in steady state.
type slab[T any] struct {
	buf    []T
	off    int
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
	switch {
	case best >= 0:
		v = s.free[best][:n:n]
		if rest := s.free[best][n:]; len(rest) > 0 {
			s.free[best] = rest
		} else {
			last := len(s.free) - 1
			s.free[best] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
		}
	case s.off+n > len(s.buf):
		s.demand += n
		return make([]T, n)
	default:
		s.demand += n
		v = s.buf[s.off : s.off+n : s.off+n]
		s.off += n
	}
	if zero {
		clear(v)
	}
	return v
}

func (s *slab[T]) release(v []T) {
	if len(v) > 0 {
		s.free = append(s.free, v)
	}
}

func (s *slab[T]) reset() {
	if s.demand > len(s.buf) {
		s.buf = make([]T, s.demand)
	}
	s.off = 0
	s.demand = 0
	clear(s.free)
	s.free = s.free[:0]
}

// demandBytes returns the bytes a has handed out since the last Reset other
// than from released buffers, over every slab: what the next Reset regrows
// it to. Tests read it through go:linkname; nothing else does.
var demandBytes = func(a *Arena) int {
	return 8*a.f64.demand + 4*a.f32.demand + 4*a.i32.demand + a.bools.demand + 8*a.dims.demand +
		int(unsafe.Sizeof(TensorOf[float64]{}))*a.t64.demand + int(unsafe.Sizeof(TensorOf[float32]{}))*a.t32.demand
}

// NewArena returns an empty arena; slabs grow on first use.
func NewArena() *Arena { return &Arena{} }

// Reset recycles every allocation made since the previous Reset and starts a
// new generation. Slabs that overflowed are regrown to the observed demand,
// so allocation falls to zero once a full iteration has run.
func (a *Arena) Reset() {
	a.f64.reset()
	a.f32.reset()
	a.i32.reset()
	a.bools.reset()
	a.dims.reset()
	a.t64.reset()
	a.t32.reset()
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
func (a *Arena) Float64(n int) []float64 { return a.f64.alloc(n, true) }

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
	var s unsafe.Pointer
	if sizeofF[F]() == 4 {
		s = unsafe.Pointer(unsafe.SliceData(a.f32.alloc(n, zero)))
	} else {
		s = unsafe.Pointer(unsafe.SliceData(a.f64.alloc(n, zero)))
	}
	return unsafe.Slice((*F)(s), n)
}

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
	if poison {
		fill(t.data, F(math.NaN()))
	}
	p, n := unsafe.Pointer(unsafe.SliceData(t.data)), len(t.data)
	if sizeofF[F]() == 4 {
		a.f32.release(unsafe.Slice((*float32)(p), n))
	} else {
		a.f64.release(unsafe.Slice((*float64)(p), n))
	}
	t.data = nil
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
