// Package compress implements the classical communication-reduction methods
// the paper's Sec. 2.2 surveys as alternatives (and complements) to FedCA:
// QSGD-style quantization (fewer bits per element) and top-k sparsification
// (fewer elements per synchronization). They plug into the FL engine as
// upload compressors, so the reproduction can compare FedCA's
// computation-communication overlap against bit-level reduction.
//
// Compressors here are deterministic (round-to-nearest rather than QSGD's
// stochastic rounding): the simulator guarantees bit-for-bit reproducibility,
// and determinism does not change the bandwidth accounting the comparison is
// about. The induced bias is part of the accuracy trade-off the experiments
// measure.
package compress

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Compressor lossily encodes a flat update vector for transmission.
type Compressor interface {
	Name() string
	IntoCompressor
}

// IntoCompressor writes the approximation the receiver will decode into a
// caller-supplied destination and returns the wire size in bytes, assuming
// an uncompressed element costs 4 bytes (fp32, as the paper assumes). The FL
// engine compresses every client layer range every round; with a destination
// buffer the steady-state round loop stays allocation-free. dst must have
// len(vec); vec and dst may alias.
type IntoCompressor interface {
	CompressInto(vec, dst []float64) (bytes float64)
}

// None is the identity compressor: full-precision fp32 transfer.
type None struct{}

// Name returns "none".
func (None) Name() string { return "none" }

// CompressInto copies vec into dst at 4 bytes per element.
func (None) CompressInto(vec, dst []float64) float64 {
	copy(dst, vec)
	return 4 * float64(len(vec))
}

// QSGD quantizes each element to one of Levels magnitude buckets of the
// vector's max-norm plus a sign (Alistarh et al., deterministic variant).
// Wire cost: ceil(log2(2·Levels+1)) bits per element plus one fp32 scale.
type QSGD struct {
	Levels int // e.g. 7 → 4 bits/element with sign
}

// Name identifies the quantizer and its level count.
func (q QSGD) Name() string { return fmt.Sprintf("qsgd%d", q.Levels) }

// BitsPerElement returns the per-element wire cost in bits.
func (q QSGD) BitsPerElement() float64 {
	return math.Ceil(math.Log2(float64(2*q.Levels + 1)))
}

// CompressInto quantizes vec into dst.
func (q QSGD) CompressInto(vec, dst []float64) float64 {
	if q.Levels < 1 {
		panic("compress: QSGD needs at least 1 level")
	}
	scale := 0.0
	for _, v := range vec {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	bytes := 4 + q.BitsPerElement()*float64(len(vec))/8
	if scale == 0 {
		for i := range dst[:len(vec)] {
			dst[i] = 0
		}
		return bytes
	}
	l := float64(q.Levels)
	for i, v := range vec {
		// round |v|/scale·L to the nearest bucket
		b := math.Round(math.Abs(v) / scale * l)
		val := b / l * scale
		if v < 0 {
			val = -val
		}
		dst[i] = val
	}
	return bytes
}

// TopK keeps the Frac·len largest-magnitude elements (at least 1) and zeroes
// the rest — the sparsification family (Gaia, APF). Wire cost: 8 bytes per
// kept element (4 index + 4 value).
type TopK struct {
	Frac float64 // fraction of elements kept, (0, 1]
}

// Name identifies the sparsifier and its keep fraction.
// Name is the spec ByName builds t from: "topk" and the kept percentage.
func (t TopK) Name() string { return "topk" + strconv.FormatFloat(t.Frac*100, 'f', -1, 64) }

// CompressInto sparsifies vec into dst. The index scratch for the selection
// sort still allocates; only the output vector is caller-supplied.
func (t TopK) CompressInto(vec, dst []float64) float64 {
	if t.Frac <= 0 || t.Frac > 1 {
		panic("compress: TopK fraction must be in (0, 1]")
	}
	k := int(t.Frac * float64(len(vec)))
	if k < 1 {
		k = 1
	}
	if k > len(vec) {
		k = len(vec)
	}
	idx := make([]int, len(vec))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection of the k largest |v|; full sort keeps it simple and
	// deterministic (ties by index).
	sort.Slice(idx, func(a, b int) bool {
		va, vb := math.Abs(vec[idx[a]]), math.Abs(vec[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	// Gather the survivors before zeroing dst: vec and dst may alias.
	kept := make([]float64, k)
	for j, i := range idx[:k] {
		kept[j] = vec[i]
	}
	for i := range dst[:len(vec)] {
		dst[i] = 0
	}
	for j, i := range idx[:k] {
		dst[i] = kept[j]
	}
	return 8 * float64(k)
}

// ByName constructs a compressor from a spec string: "none", "qsgd<levels>"
// (e.g. qsgd7), or "topk<percent>" (e.g. topk1 = keep 1%, topk0.5). The
// number must be written as strconv formats it — digits, no sign, exponent,
// hex, leading zero or trailing fractional zero — so every accepted spec
// other than "" is written one way only: ByName normalises nothing away.
func ByName(spec string) (Compressor, error) {
	switch {
	case spec == "" || spec == "none":
		return None{}, nil
	case strings.HasPrefix(spec, "qsgd"):
		levels, err := strconv.Atoi(spec[4:])
		if err != nil || levels < 1 || strconv.Itoa(levels) != spec[4:] {
			return nil, fmt.Errorf("compress: bad qsgd spec %q", spec)
		}
		return QSGD{Levels: levels}, nil
	case strings.HasPrefix(spec, "topk"):
		pct, err := strconv.ParseFloat(spec[4:], 64)
		if err != nil || !(pct > 0 && pct <= 100) || strconv.FormatFloat(pct, 'f', -1, 64) != spec[4:] {
			return nil, fmt.Errorf("compress: bad topk spec %q", spec)
		}
		return TopK{Frac: pct / 100}, nil
	default:
		return nil, fmt.Errorf("compress: unknown compressor %q", spec)
	}
}
