// Package tensor implements dense float tensors and the linear-algebra
// kernels (parallel GEMM, im2col) that back the neural-network layers used in
// the FedCA reproduction.
//
// The element type is generic: TensorOf[F] works over any Float (float32 or
// float64), and Tensor is an alias for TensorOf[float64] so the historical
// float64 API is unchanged. Kernels are instantiated per dtype with
// dtype-selected tile geometry (see gemm.go); each dtype's blocked path is
// bit-identical to its own reference kernel.
//
// Tensors are always contiguous in row-major order; Clone copies. The
// package is deliberately
// small: only the operations the training stack needs, each with a clear
// contract and panics on shape mismatch (shape errors are programming errors,
// not runtime conditions).
package tensor

import "fmt"

// Float is the element-type constraint of every kernel in this package.
type Float interface {
	~float32 | ~float64
}

// TensorOf is a dense, contiguous, row-major tensor over element type F.
type TensorOf[F Float] struct {
	data  []F
	shape []int
}

// Tensor is the float64 tensor the training stack historically used; every
// float64 call site compiles unchanged against the generic implementation.
type Tensor = TensorOf[float64]

// New returns a zero-filled float64 tensor with the given shape.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// NewOf returns a zero-filled tensor of element type F with the given shape.
func NewOf[F Float](shape ...int) *TensorOf[F] {
	n := checkShape(shape)
	return &TensorOf[F]{data: make([]F, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a float64 tensor of the given shape. The tensor
// takes ownership of data (no copy). It panics if len(data) does not match
// shape.
func FromSlice(data []float64, shape ...int) *Tensor { return fromSlice(data, shape...) }

func fromSlice[F Float](data []F, shape ...int) *TensorOf[F] {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), shape, n))
	}
	return &TensorOf[F]{data: data, shape: append([]int(nil), shape...)}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// The panic path copies the shape before formatting: handing the
			// slice to Sprintf directly would leak it to the heap at every
			// call site, forcing the caller's variadic shape literal onto the
			// heap even on the (always-taken) happy path.
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *TensorOf[F]) Shape() []int { return t.shape }

// Size returns the total number of elements.
func (t *TensorOf[F]) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible to all views.
func (t *TensorOf[F]) Data() []F { return t.data }

// Dim returns the size of dimension i.
func (t *TensorOf[F]) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *TensorOf[F]) Rank() int { return len(t.shape) }

// Clone returns a deep copy of t.
func (t *TensorOf[F]) Clone() *TensorOf[F] {
	d := make([]F, len(t.data))
	copy(d, t.data)
	return &TensorOf[F]{data: d, shape: append([]int(nil), t.shape...)}
}

// Rebind points t at new backing storage of the same total size, keeping its
// shape. It exists for scratch headers that wrap a different sub-slice
// on every call (e.g. one sample's rows of a batch buffer) without minting a
// fresh header each time. It panics if len(data) differs from t's size.
func (t *TensorOf[F]) Rebind(data []F) {
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: Rebind length %d does not match tensor size %d", len(data), len(t.data)))
	}
	t.data = data
}

// CopyFrom copies src's elements into t. Shapes must have equal total size.
func (t *TensorOf[F]) CopyFrom(src *TensorOf[F]) {
	if len(t.data) != len(src.data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.data, src.data)
}

// Zero sets every element to 0.
func (t *TensorOf[F]) Zero() {
	clear(t.data)
}

// Fill sets every element to v.
func (t *TensorOf[F]) Fill(v F) {
	for i := range t.data {
		t.data[i] = v
	}
}

// At returns the element at the given multi-dimensional index.
func (t *TensorOf[F]) At(idx ...int) F { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-dimensional index.
func (t *TensorOf[F]) Set(v F, idx ...int) { t.data[t.offset(idx)] = v }

func (t *TensorOf[F]) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *TensorOf[F]) SameShape(o *TensorOf[F]) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func assertSameSize[F Float](a, b *TensorOf[F], op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch: %v vs %v", op, a.shape, b.shape))
	}
}

// AddInto sets t = a + b elementwise (sizes must match).
func (t *TensorOf[F]) AddInto(a, b *TensorOf[F]) {
	assertSameSize(a, b, "Add")
	assertSameSize(t, a, "Add")
	addSlices(t.data, a.data, b.data)
}

// Add adds o to t in place.
func (t *TensorOf[F]) Add(o *TensorOf[F]) {
	assertSameSize(t, o, "Add")
	addSlices(t.data, t.data, o.data)
}

// AddRows adds every row of m (rows × t.Size(), row-major) to t viewed as a
// flat vector, row 0 first: each element of t grows by one chain of additions
// in row order — a bias gradient summed over the batch.
func (t *TensorOf[F]) AddRows(m *TensorOf[F]) {
	if len(t.data) == 0 || len(m.data)%len(t.data) != 0 {
		panic(fmt.Sprintf("tensor: AddRows size mismatch: %v vs %v", t.shape, m.shape))
	}
	addRows(t.data, m.data, len(m.data)/len(t.data))
}

// Sub subtracts o from t in place.
func (t *TensorOf[F]) Sub(o *TensorOf[F]) {
	assertSameSize(t, o, "Sub")
	for i := range t.data {
		t.data[i] -= o.data[i]
	}
}

// Sum returns the sum of all elements.
func (t *TensorOf[F]) Sum() F {
	var s F
	for _, v := range t.data {
		s += v
	}
	return s
}

// ArgMaxRow returns, for a 2-D tensor, the index of the maximum element in
// row r. Ties resolve to the lowest index.
func (t *TensorOf[F]) ArgMaxRow(r int) int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRow requires a 2-D tensor")
	}
	cols := t.shape[1]
	row := t.data[r*cols : (r+1)*cols]
	best, bestV := 0, row[0]
	for j := 1; j < cols; j++ {
		if row[j] > bestV {
			best, bestV = j, row[j]
		}
	}
	return best
}

// String renders a compact description, useful in test failures.
func (t *TensorOf[F]) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
