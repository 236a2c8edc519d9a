package fl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fedca/internal/cputok"
)

func randomUpdates(r *rand.Rand, clients, n int) ([]Update, float64) {
	ups := make([]Update, clients)
	var totalW float64
	for i := range ups {
		d := make([]float64, n)
		for j := range d {
			d[j] = r.NormFloat64()
		}
		w := 1 + 9*r.Float64()
		ups[i] = Update{ClientID: i, Delta: d, Weight: w}
		totalW += w
	}
	return ups, totalW
}

// serialReduce is the pre-sharding reference reduce, kept verbatim as the
// bit-exactness oracle for streamReduce.
func serialReduce(flat []float64, collected []Update, totalW float64) {
	agg := make([]float64, len(flat))
	for _, u := range collected {
		w := u.Weight / totalW
		for j, v := range u.Delta {
			agg[j] += w * v
		}
	}
	for j := range flat {
		flat[j] += agg[j]
	}
}

// TestWeightedReduceDeterministic: the streaming chunked reduce must produce
// globals bit-identical to the serial loop, for every worker count, fan-in
// and cohort size — including
// parameter counts that do and don't clear the minReduceShard gate, shard
// boundaries that don't divide evenly, and cohorts smaller than, equal to
// and much larger than the fan-in.
func TestWeightedReduceDeterministic(t *testing.T) {
	// Raise the shared token budget above this box's core count so the
	// parallel shard paths are actually exercised even on a 1-CPU runner;
	// determinism must hold at every borrowed-worker count anyway.
	cputok.Default().SetCap(16)
	defer cputok.Default().SetCap(0)
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, minReduceShard, 10 * minReduceShard} {
		for _, clients := range []int{1, 3, 9, 40} {
			ups, totalW := randomUpdates(r, clients, n)
			base := make([]float64, n)
			for j := range base {
				base[j] = r.NormFloat64()
			}
			want := append([]float64(nil), base...)
			serialReduce(want, ups, totalW)
			check := func(label string, got []float64) {
				t.Helper()
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("n=%d clients=%d %s: flat[%d] = %v, serial %v",
							n, clients, label, j, got[j], want[j])
					}
				}
			}
			for _, workers := range []int{1, 2, 4, 13} {
				agg := make([]float64, n)
				for _, fanIn := range []int{1, 2, reduceFanIn, 1000} {
					got := append([]float64(nil), base...)
					streamReduce(got, agg, ups, totalW, workers, fanIn, nil)
					check(fmt.Sprintf("stream workers=%d fanIn=%d", workers, fanIn), got)
				}
			}
		}
	}
}

// TestStreamReduceRecycles: the recycle callback must receive every
// collected delta exactly once, as its chunk completes, and the recycled
// update must let go of it (whoever recycles a delta nils Update.Delta).
func TestStreamReduceRecycles(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n, clients = 64, 11
	ups, totalW := randomUpdates(r, clients, n)
	deltas := make([][]float64, clients)
	for i, u := range ups {
		deltas[i] = u.Delta
	}
	flat := make([]float64, n)
	agg := make([]float64, n)
	seen := make(map[*float64]int)
	streamReduce(flat, agg, ups, totalW, 4, 3, func(d []float64) {
		seen[&d[0]]++
	})
	if len(seen) != clients {
		t.Fatalf("recycled %d distinct deltas, want %d", len(seen), clients)
	}
	for i, u := range ups {
		if seen[&deltas[i][0]] != 1 {
			t.Fatalf("client %d delta recycled %d times", u.ClientID, seen[&deltas[i][0]])
		}
		if u.Delta != nil {
			t.Fatalf("client %d still holds its recycled delta", u.ClientID)
		}
	}
}

// TestOnlineFoldMatchesAnyCompletionOrder: folding updates at the in-order
// frontier must yield the same accumulator, weight total and quarantine
// verdicts no matter which order completions arrive in — the property that
// makes the online path worker-count invariant.
func TestOnlineFoldMatchesAnyCompletionOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, clients = 32, 7
	build := func() []Update {
		ups, _ := randomUpdates(r, clients, n)
		return ups
	}
	ref := build()
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{6, 5, 4, 3, 2, 1, 0},
		{3, 0, 6, 1, 5, 2, 4},
	}
	var wantAgg []float64
	var wantW float64
	for oi, order := range orders {
		ups := make([]Update, clients)
		for i := range ups {
			ups[i] = ref[i]
			ups[i].Delta = append([]float64(nil), ref[i].Delta...)
		}
		f := newOnlineFold(make([]float64, n), ups, slices.Repeat([]bool{true}, clients), make([]bool, clients), &deltaPool{}, clients)
		for _, i := range order {
			f.complete(i)
		}
		if f.next != clients {
			t.Fatalf("order %d: fold frontier stopped at %d/%d", oi, f.next, clients)
		}
		if oi == 0 {
			wantAgg = append([]float64(nil), f.agg...)
			wantW = f.totalW
			continue
		}
		if f.totalW != wantW {
			t.Fatalf("order %d: totalW %v != %v", oi, f.totalW, wantW)
		}
		for j := range f.agg {
			if f.agg[j] != wantAgg[j] {
				t.Fatalf("order %d: agg[%d] = %v, want %v", oi, j, f.agg[j], wantAgg[j])
			}
		}
	}
}

// TestOnlineFoldWaitsPastItsWindow: a worker whose finished update lies the
// window (the train stage's worker count) or more places past the frontier
// waits in complete until the frontier comes within the window of it, so a
// stalled client bounds the updates the others finish meanwhile; an abort,
// which a panicking client round calls, wakes it instead.
func TestOnlineFoldWaitsPastItsWindow(t *testing.T) {
	const n, clients, window = 8, 4, 2
	for _, abort := range []bool{false, true} {
		ups, _ := randomUpdates(rand.New(rand.NewSource(7)), clients, n)
		f := newOnlineFold(make([]float64, n), ups, slices.Repeat([]bool{true}, clients), make([]bool, clients), &deltaPool{}, window)
		f.complete(1) // one place past the frontier: inside the window
		returned := make(chan struct{})
		go func() {
			f.complete(2)
			close(returned)
		}()
		select {
		case <-returned:
			t.Fatalf("complete(2) returned with the frontier at 0 and a window of %d", window)
		case <-time.After(50 * time.Millisecond):
		}
		if abort {
			f.abort()
		} else {
			f.complete(0)
		}
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("abort %v: complete(2) still waits", abort)
		}
		if want := map[bool]int{false: 3, true: 0}[abort]; f.next != want {
			t.Fatalf("abort %v: frontier at %d, want %d", abort, f.next, want)
		}
	}
}

// BenchmarkWeightedReduce measures the offline reduce at a CNN-scale
// parameter count across worker counts (workers=1 is the serial loop).
func BenchmarkWeightedReduce(b *testing.B) {
	const n, clients = 1 << 18, 16
	r := rand.New(rand.NewSource(2))
	ups, totalW := randomUpdates(r, clients, n)
	flat := make([]float64, n)
	agg := make([]float64, n)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				streamReduce(flat, agg, ups, totalW, workers, reduceFanIn, nil)
			}
		})
	}
}
