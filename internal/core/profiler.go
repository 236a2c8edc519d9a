package core

import (
	"fmt"
	"sync"

	"fedca/internal/nn"
	"fedca/internal/rng"
)

// DefaultSampleCap is the paper's intra-layer sampling rule: per layer,
// profile min(50% of the layer's scalars, 100) sampled parameters.
const DefaultSampleCap = 100

// DefaultSampleFrac is the 50% of the sampling rule.
const DefaultSampleFrac = 0.5

// Profiler implements periodical sampling (Sec. 4.1) for one client: at
// anchor rounds it records, after every local iteration, the current
// accumulated update of a small sampled parameter subset per layer, and at
// round end turns the recording into statistical-progress curves that the
// following (non-anchor) rounds consult.
type Profiler struct {
	sampleCap  int
	sampleFrac float64
	r          *rng.RNG

	ranges    []nn.ParamRange
	sampleIdx [][]int // per layer: sampled flat indices into the delta vector

	recording  bool
	recRound   int
	recSamples [][]float64 // per iteration: concatenated sampled values
	rows       *rowPool    // where recorded rows come from and go back to; nil: the heap

	curves *Curves
}

// rowPool keeps anchor-recording rows from one anchor round to the next. A
// Scheme shares one among all its clients' profilers: a recording lives only
// while its client's round runs, so the pool holds as many recordings as
// the rounds that ran at once, not one per client. Safe for concurrent use —
// clients record on several workers.
type rowPool struct {
	mu   sync.Mutex
	free [][]float64
}

// get returns an empty row with room for n values.
func (rp *rowPool) get(n int) []float64 {
	if rp != nil {
		rp.mu.Lock()
		defer rp.mu.Unlock()
		if k := len(rp.free); k > 0 {
			row := rp.free[k-1]
			rp.free = rp.free[:k-1]
			if cap(row) >= n {
				return row[:0]
			}
		}
	}
	return make([]float64, 0, n)
}

// put hands a recording's rows back.
func (rp *rowPool) put(rows [][]float64) {
	if rp == nil {
		return
	}
	rp.mu.Lock()
	rp.free = append(rp.free, rows...)
	rp.mu.Unlock()
}

// NewProfiler creates a profiler whose sampled indices are drawn
// deterministically from r once the layer layout is first observed.
func NewProfiler(sampleCap int, sampleFrac float64, r *rng.RNG) *Profiler {
	if sampleCap <= 0 {
		sampleCap = DefaultSampleCap
	}
	if sampleFrac <= 0 || sampleFrac > 1 {
		sampleFrac = DefaultSampleFrac
	}
	return &Profiler{sampleCap: sampleCap, sampleFrac: sampleFrac, r: r}
}

// ensureLayout lazily fixes the sampled indices the first time the parameter
// layout is seen. The same indices are reused for every subsequent anchor so
// curves are comparable across rounds.
func (p *Profiler) ensureLayout(ranges []nn.ParamRange) {
	if p.ranges != nil {
		if len(p.ranges) != len(ranges) {
			panic("core: parameter layout changed between rounds")
		}
		return
	}
	p.ranges = append([]nn.ParamRange(nil), ranges...)
	p.sampleIdx = make([][]int, len(ranges))
	for l, rg := range ranges {
		n := rg.Size()
		k := int(p.sampleFrac * float64(n))
		if k > p.sampleCap {
			k = p.sampleCap
		}
		if k < 1 {
			k = 1
		}
		local := p.r.Fork("layer", l).Sample(n, k)
		idx := make([]int, k)
		for i, li := range local {
			idx[i] = rg.Start + li
		}
		p.sampleIdx[l] = idx
	}
}

// Prepare fixes the sampled indices for a known parameter layout without
// recording anything — used by overhead accounting (Sec. 5.5) and by callers
// that want sampling decisions before the first anchor round.
func (p *Profiler) Prepare(ranges []nn.ParamRange) { p.ensureLayout(ranges) }

// Layers returns the number of profiled layers (0 before first use).
func (p *Profiler) Layers() int { return len(p.ranges) }

// TotalSamples returns the number of sampled scalars across all layers
// (the paper's Sec. 5.5 overhead figure; e.g. 618 for CNN, 9974 for WRN).
func (p *Profiler) TotalSamples() int {
	total := 0
	for _, idx := range p.sampleIdx {
		total += len(idx)
	}
	return total
}

// MemoryBytes returns the peak profiling memory of an anchor round with k
// iterations at 8 bytes per sampled scalar (float64).
func (p *Profiler) MemoryBytes(k int) int { return p.TotalSamples() * k * 8 }

// BeginAnchor arms recording for an anchor round.
func (p *Profiler) BeginAnchor(round int) {
	p.releaseRows()
	p.recording = true
	p.recRound = round
}

// AbortAnchor discards a partial anchor recording — the client dropped out
// mid-round, so the curve would be built from a truncated iteration range —
// and disarms recording. The previous anchor's curves are kept deliberately:
// a stale curve still guides the following rounds better than none, and the
// next anchor round re-arms cleanly via BeginAnchor. Safe to call when not
// recording (no-op).
func (p *Profiler) AbortAnchor() {
	p.recording = false
	p.releaseRows()
}

// releaseRows returns the recording's rows to the pool.
func (p *Profiler) releaseRows() {
	p.rows.put(p.recSamples)
	clear(p.recSamples)
	p.recSamples = p.recSamples[:0]
}

// Recording reports whether an anchor round is being recorded.
func (p *Profiler) Recording() bool { return p.recording }

// Record captures the sampled slice of the current accumulated update after
// one local iteration of an anchor round.
func (p *Profiler) Record(ranges []nn.ParamRange, delta []float64) {
	if !p.recording {
		panic("core: Record outside an anchor round")
	}
	p.ensureLayout(ranges)
	row := p.rows.get(p.TotalSamples())
	for _, idx := range p.sampleIdx {
		for _, j := range idx {
			row = append(row, delta[j])
		}
	}
	p.recSamples = append(p.recSamples, row)
}

// FinishAnchor converts the recording into progress curves and disarms
// recording. It panics if nothing was recorded.
func (p *Profiler) FinishAnchor() *Curves {
	if !p.recording {
		panic("core: FinishAnchor outside an anchor round")
	}
	p.recording = false
	k := len(p.recSamples)
	if k == 0 {
		panic("core: anchor round recorded no iterations")
	}
	c := &Curves{Round: p.recRound}
	// Model-level curve over the concatenated samples.
	c.Model = ProgressCurve(p.recSamples)
	// Per-layer curves over each layer's sample block.
	c.Layer = make([][]float64, len(p.sampleIdx))
	block := make([][]float64, k)
	off := 0
	for l, idx := range p.sampleIdx {
		for t := 0; t < k; t++ {
			block[t] = p.recSamples[t][off : off+len(idx)]
		}
		c.Layer[l] = ProgressCurve(block)
		off += len(idx)
	}
	p.releaseRows()
	p.curves = c
	return c
}

// Curves returns the most recent anchor curves (nil before the first anchor
// completes).
func (p *Profiler) Curves() *Curves { return p.curves }

// String summarises the profiler state.
func (p *Profiler) String() string {
	return fmt.Sprintf("Profiler{layers=%d samples=%d recording=%v}", p.Layers(), p.TotalSamples(), p.recording)
}
