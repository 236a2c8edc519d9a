package compress

import (
	"fmt"
	"math"
	"testing"
)

func randVec(n int, seed uint64) []float64 {
	v := make([]float64, n)
	s := seed
	for i := range v {
		// SplitMix64: cheap, deterministic, no test-only dependencies.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v[i] = float64(int64(z))/float64(math.MaxInt64) - 0.5
	}
	return v
}

// TestCompressIntoMatchesCompress pins CompressInto's independence from its
// destination: writing into a fresh vector, into a dirty one, and in place
// over vec (the FL engine's usage) gives the same approximation and the same
// byte cost, for every compressor.
func TestCompressIntoMatchesCompress(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Compressor
	}{
		{"none", None{}},
		{"qsgd7", QSGD{Levels: 7}},
		{"qsgd2", QSGD{Levels: 2}},
		{"topk0.3", TopK{Frac: 0.3}},
		{"topk0.001", TopK{Frac: 0.001}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vec := randVec(257, 11)
			want, wantBytes := compressed(tc.c, vec)

			dirty := randVec(len(vec), 5)
			if b := tc.c.CompressInto(vec, dirty); b != wantBytes {
				t.Fatalf("dirty-destination bytes = %v, want %v", b, wantBytes)
			}
			for i := range dirty {
				if dirty[i] != want[i] {
					t.Fatalf("dirty dst[%d] = %v, want %v", i, dirty[i], want[i])
				}
			}

			// Aliased: compress in place, as the client round does.
			alias := append([]float64(nil), vec...)
			aliasBytes := tc.c.CompressInto(alias, alias)
			if aliasBytes != wantBytes {
				t.Fatalf("aliased bytes = %v, want %v", aliasBytes, wantBytes)
			}
			for i := range alias {
				if alias[i] != want[i] {
					t.Fatalf("aliased dst[%d] = %v, want %v", i, alias[i], want[i])
				}
			}
		})
	}
}

// TestCompressIntoZeroVector pins the scale==0 edge: QSGD must zero a dirty
// destination, not leave stale values behind.
func TestCompressIntoZeroVector(t *testing.T) {
	vec := []float64{0, 0, 0}
	dst := []float64{7, 8, 9}
	QSGD{Levels: 7}.CompressInto(vec, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("dst[%d] = %v, want 0", i, v)
		}
	}
}

// BenchmarkCompress measures CompressInto at model-delta sizes (the
// tiny-scale CNN flattens to ~62k parameters, the LSTM to ~51k) into a
// reused destination, as the per-client compression of every round does.
func BenchmarkCompress(b *testing.B) {
	for _, size := range []int{62006, 51044} {
		vec := randVec(size, 3)
		dst := make([]float64, size)
		for _, tc := range []struct {
			name string
			c    Compressor
		}{
			{"none", None{}},
			{"qsgd7", QSGD{Levels: 7}},
			{"topk0.3", TopK{Frac: 0.3}},
		} {
			b.Run(fmt.Sprintf("%s/n%d", tc.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tc.c.CompressInto(vec, dst)
				}
			})
		}
	}
}
