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
