package tensor

import (
	"strings"
	"testing"
)

func TestStringAndAccessors(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Dim(2) != 4 {
		t.Fatalf("rank/dim wrong: %v", x.Shape())
	}
	if !strings.Contains(x.String(), "2 3 4") {
		t.Fatalf("String = %q", x.String())
	}
}

func TestFillZeroCopyFrom(t *testing.T) {
	x := New(4)
	x.Fill(2.5)
	for _, v := range x.Data() {
		if v != 2.5 {
			t.Fatal("Fill wrong")
		}
	}
	y := New(4)
	y.CopyFrom(x)
	x.Zero()
	for i := range x.data {
		if x.data[i] != 0 || y.data[i] != 2.5 {
			t.Fatalf("after CopyFrom and Zero: x = %v, y = %v; want zeros, and a copy of 2.5s", x.data, y.data)
		}
	}
}

func TestCopyFromSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).CopyFrom(New(3))
}

func TestBadShapePanics(t *testing.T) {
	for _, f := range []func(){
		func() { New() },
		func() { New(0) },
		func() { New(2, -1) },
		func() { NewConvGeom(1, 2, 2, 5, 5, 1, 0) }, // kernel larger than input
		func() { NewConvGeom(1, 4, 4, 3, 3, 0, 0) }, // zero stride
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("equal shapes")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("different dims")
	}
	if New(6).SameShape(New(2, 3)) {
		t.Fatal("different ranks")
	}
}

func TestIm2ColSizeMismatchPanics(t *testing.T) {
	g := NewConvGeom(1, 4, 4, 3, 3, 1, 0)
	for _, f := range []func(){
		func() { Im2ColOf(g, make([]float64, 3), NewPackedBOf[float64](g.ColCols(), g.ColRows())) },
		func() { Im2ColOf(g, make([]float64, 16), NewPackedBOf[float64](g.ColRows(), g.ColCols())) },
		func() { Im2ColPackedOf(g, make([]float64, 3), NewPackedBOf[float64](g.ColRows(), g.ColCols())) },
		func() { Im2ColPackedOf(g, make([]float64, 16), NewPackedBOf[float64](g.ColCols(), g.ColRows())) },
		func() { Col2ImOf(g, make([]float64, 3), make([]float64, 16)) },
		func() { Col2ImOf(g, make([]float64, g.ColRows()*g.ColCols()), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestArgMaxRowRequires2D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).ArgMaxRow(0)
}
