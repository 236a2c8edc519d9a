package tensor

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestArenaResetReuse: after a warmup generation has grown the slabs, the
// same request in the next generation must come out of the same backing
// buffer (bump allocation, not make).
func TestArenaResetReuse(t *testing.T) {
	a := NewArena()
	a.Float64(128) // warmup: adds the chunk this request is cut from
	a.Reset()      // rewinds the chunk; nothing is re-made
	s1 := a.Float64(128)
	a.Reset()
	s2 := a.Float64(128)
	if unsafe.SliceData(s1) != unsafe.SliceData(s2) {
		t.Fatal("same-sized allocation after Reset did not reuse the slab")
	}
}

// TestArenaZeroesRecycledMemory: a recycled slab region must come back
// zeroed, or arena-backed layers would read the previous iteration's values.
func TestArenaZeroesRecycledMemory(t *testing.T) {
	a := NewArena()
	a.Float64(16)
	a.Reset()
	s := a.Float64(16)
	for i := range s {
		s[i] = 42
	}
	a.Reset()
	for i, v := range a.Float64(16) {
		if v != 0 {
			t.Fatalf("recycled slab not zeroed at %d: %v", i, v)
		}
	}
}

// TestArenaOverflowAddsChunk: demand beyond the slab's chunks adds a chunk
// (a warmup allocation, usable at once) that the slab keeps, so after Reset
// the same demand fits entirely next generation.
func TestArenaOverflowAddsChunk(t *testing.T) {
	a := NewArena()
	arenaSlice[float32](a, 8, true)
	a.Reset() // one chunk of the floor's size
	arenaSlice[float32](a, 8, true)
	big := arenaSlice[float32](a, 1024, true) // overflow: a second chunk
	big[1023] = 1                             // must be writable at once
	a.Reset()                                 // rewinds both chunks
	allocs := testing.AllocsPerRun(10, func() {
		arenaSlice[float32](a, 8, true)
		arenaSlice[float32](a, 1024, true)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("generation after the overflow allocated %v times; want 0", allocs)
	}
}

// TestArenaAllocOfSteadyStateZeroAlloc: AllocOf draws data, shape and the
// tensor header itself from the arena, so a steady-state iteration of mixed
// allocations performs zero heap allocations.
func TestArenaAllocOfSteadyStateZeroAlloc(t *testing.T) {
	a := NewArena()
	iter := func() {
		a.Reset()
		x := AllocOf[float64](a, 4, 8)
		y := AllocOf[float32](a, 2, 3, 5)
		_ = a.Int32Uninit(16)
		_ = a.BoolsUninit(64)
		x.Data()[0] = 1
		y.Data()[0] = 1
	}
	iter() // warmup sizes every slab
	if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
		t.Fatalf("steady-state arena iteration allocated %v times; want 0", allocs)
	}
}

// TestArenaAllocOfShapes: arena tensors carry correct shapes and are zeroed.
func TestArenaAllocOfShapes(t *testing.T) {
	a := NewArena()
	x := AllocOf[float32](a, 3, 7)
	if x.Dim(0) != 3 || x.Dim(1) != 7 || len(x.Data()) != 21 {
		t.Fatalf("bad arena tensor geometry: %v, len %d", x.Shape(), len(x.Data()))
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("arena tensor not zeroed at %d: %v", i, v)
		}
	}
}

// TestArenaCheckGenPanics: reading scratch from a previous generation must
// panic loudly, not silently alias recycled memory.
func TestArenaCheckGenPanics(t *testing.T) {
	a := NewArena()
	gen := a.Gen()
	a.CheckGen(gen, "test") // same generation: fine
	a.Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("CheckGen with a stale generation did not panic")
		}
	}()
	a.CheckGen(gen, "test")
}

// TestArenaReleaseReuse: a released tensor's storage serves later allocations
// that fit it — zeroing or not, whole or cut into pieces, of either float
// type — and no others: no longer one, and no mask or index.
func TestArenaReleaseReuse(t *testing.T) {
	a := NewArena()
	x := AllocUninitOf[float64](a, 4, 8)
	xp := unsafe.SliceData(x.Data())
	within := func(d []float64) bool {
		off := uintptr(unsafe.Pointer(unsafe.SliceData(d))) - uintptr(unsafe.Pointer(xp))
		return off < 32*8
	}
	ReleaseOf(a, x)
	if x.Data() != nil {
		t.Fatal("a released tensor still points at its data")
	}
	if y := AllocUninitOf[float64](a, 4, 9); within(y.Data()) {
		t.Fatal("an allocation longer than the released buffer was cut from it")
	}
	withinAny := func(p unsafe.Pointer) bool { return within(unsafe.Slice((*float64)(p), 1)) }
	if withinAny(unsafe.Pointer(unsafe.SliceData(a.BoolsUninit(32 * 8)))) {
		t.Fatal("a bool allocation took released float storage")
	}
	if withinAny(unsafe.Pointer(unsafe.SliceData(a.Int32Uninit(32 * 2)))) {
		t.Fatal("an int32 allocation took released float storage")
	}
	y := AllocUninitOf[float64](a, 8, 4)
	if unsafe.SliceData(y.Data()) != xp {
		t.Fatal("a same-length allocation did not reuse the released buffer")
	}
	if z := AllocUninitOf[float64](a, 8, 4); within(z.Data()) {
		t.Fatal("one released buffer served two allocations of its length")
	}
	for i := range y.Data() {
		y.Data()[i] = 7
	}
	ReleaseOf(a, y)
	for i, v := range AllocOf[float64](a, 32).Data() {
		if v != 0 {
			t.Fatalf("zeroing allocation reused a released buffer without clearing it: [%d] = %v", i, v)
		}
	}
	// A longer released buffer is cut up: two halves fit, a third does not,
	// and the halves do not overlap.
	w := AllocUninitOf[float64](a, 64)
	wp := unsafe.SliceData(w.Data())
	ReleaseOf(a, w)
	h1, h2, h3 := a.Float64(32), a.Float64(32), a.Float64(32)
	if unsafe.SliceData(h1) != wp || unsafe.SliceData(h2) != &unsafe.Slice(wp, 64)[32] {
		t.Fatal("two half-length allocations were not cut from the released buffer")
	}
	if p := unsafe.SliceData(h3); p == wp || p == &unsafe.Slice(wp, 64)[32] {
		t.Fatal("a third half-length allocation was cut from a buffer with nothing left")
	}
	if cap(h1) != 32 {
		t.Fatalf("a piece's capacity %d reaches into the next piece", cap(h1))
	}
	// The best fit, not the first: a request the short buffer can serve
	// leaves the long one whole.
	long, short := AllocUninitOf[float64](a, 100), AllocUninitOf[float64](a, 10)
	lp, sp := unsafe.SliceData(long.Data()), unsafe.SliceData(short.Data())
	ReleaseOf(a, long)
	ReleaseOf(a, short)
	if unsafe.SliceData(a.Float64(8)) != sp || unsafe.SliceData(a.Float64(100)) != lp {
		t.Fatal("a small request was not served from the shortest released buffer that fits")
	}
	// Reset forgets what was released: the slab is whole again.
	ReleaseOf(a, AllocUninitOf[float64](a, 32))
	a.Reset()
	if n := len(a.floats.free); n != 0 {
		t.Fatalf("%d released buffers survived Reset", n)
	}
	// Either float type serves the other: a released float64 buffer serves a
	// float32 request of no more bytes, and a released float32 buffer a
	// float64 one.
	f := AllocUninitOf[float64](a, 8)
	fp := unsafe.Pointer(unsafe.SliceData(f.Data()))
	ReleaseOf(a, f)
	g := AllocUninitOf[float32](a, 16)
	if unsafe.Pointer(unsafe.SliceData(g.Data())) != fp {
		t.Fatal("a float32 allocation of the released bytes did not reuse a released float64 buffer")
	}
	ReleaseOf(a, g)
	if unsafe.Pointer(unsafe.SliceData(a.Float64(8))) != fp {
		t.Fatal("a float64 allocation of the released bytes did not reuse a released float32 buffer")
	}
}

// TestArenaReleaseBoundsHighWater: a chain that releases each buffer once the
// next exists grows the slab to what is live at once, not to the sum, and
// allocates nothing once warm.
func TestArenaReleaseBoundsHighWater(t *testing.T) {
	a := NewArena()
	const n, steps = 1000, 20
	chain := func() {
		a.Reset()
		x := AllocUninitOf[float64](a, n)
		for s := 0; s < steps; s++ {
			y := AllocUninitOf[float64](a, n)
			y.Data()[0] = x.Data()[0] + 1
			ReleaseOf(a, x)
			x = y
		}
	}
	chain()
	chain()
	// Each chunk is rounded up to what the runtime allocates for it.
	if got, two := a.floats.retained()/8, 2*chunkBytes(8*n)/8; got != two {
		t.Fatalf("slab retains %d elements for a chain with two buffers of %d live at once (%d as rounded chunks)", got, n, two)
	}
	if allocs := testing.AllocsPerRun(10, chain); allocs != 0 {
		t.Fatalf("steady-state releasing chain allocated %v times; want 0", allocs)
	}
}

// TestArenaPoison: under the test hook a non-zeroing allocation and a
// released buffer are both unmistakable, at every element type, and the
// zeroing allocations stay zero.
func TestArenaPoison(t *testing.T) {
	poison = true
	defer func() { poison = false }()
	a := NewArena()
	for pass := 0; pass < 2; pass++ { // from new chunks, then from rewound ones
		a.Reset()
		for _, v := range AllocUninitOf[float64](a, 5).Data() {
			if v == v {
				t.Fatalf("pass %d: non-zeroing float64 allocation holds %v, want NaN", pass, v)
			}
		}
		for _, v := range ArenaSliceUninit[float32](a, 5) {
			if v == v {
				t.Fatalf("pass %d: non-zeroing float32 allocation holds %v, want NaN", pass, v)
			}
		}
		for _, v := range a.Int32Uninit(5) {
			if v != -1 {
				t.Fatalf("pass %d: non-zeroing int32 allocation holds %v, want -1", pass, v)
			}
		}
		for _, v := range a.BoolsUninit(5) {
			if !v {
				t.Fatalf("pass %d: non-zeroing bool allocation holds false, want true", pass)
			}
		}
		x := AllocOf[float32](a, 3)
		for _, v := range x.Data() {
			if v != 0 {
				t.Fatalf("pass %d: zeroing allocation holds %v", pass, v)
			}
		}
		xd := x.Data()
		ReleaseOf(a, x)
		for _, v := range xd {
			if v == v {
				t.Fatalf("pass %d: released buffer holds %v, want NaN", pass, v)
			}
		}
	}
}

// TestArenaWarmupMakesEachByteOnce: a generation that overflows the arena
// grows it by chunks it keeps, and a generation that replays it is cut from
// those same chunks. So the bytes the runtime allocated over both — every
// chunk, the chunk lists, the released-buffer lists — come to no more than
// what the arena retains plus one chunk floor. Serving the overflow from
// throw-away allocations and then re-making the slab at the next Reset made
// each byte twice.
func TestArenaWarmupMakesEachByteOnce(t *testing.T) {
	a := NewArena()
	gen := func() {
		a.Reset()
		for i, n := range []int{3000, 20000, 500, 64000, 7000, 20000, 1} {
			x := AllocUninitOf[float64](a, n)
			AllocOf[float32](a, 2, n)
			a.Int32Uninit(n / 4)
			a.BoolsUninit(n)
			if i%2 == 1 {
				ReleaseOf(a, x)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen() // overflows the empty arena
	gen() // replays it
	runtime.ReadMemStats(&after)
	made, kept := int(after.TotalAlloc-before.TotalAlloc), retainedBytes(a)
	t.Logf("allocated %d B over an overflowing generation and its replay; the arena retains %d B", made, kept)
	if made > kept+chunkFloor {
		t.Fatalf("the arena allocated %d B to retain %d B: warm-up made bytes it did not keep", made, kept)
	}
}
