package fl

import (
	"fmt"
	"math"
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

// serialReduce is the one reduce arithmetic written as plainly as it reads,
// the only reference for both schedules: the folded updates, in order,
// accumulate unnormalized, agg[j] += w·d[j], with their weights summed in the
// same order, and flat[j] += agg[j]/W once.
func serialReduce(flat []float64, folded []Update) {
	agg := make([]float64, len(flat))
	var totalW float64
	for _, u := range folded {
		for j, v := range u.Delta {
			agg[j] += u.Weight * v
		}
		totalW += u.Weight
	}
	for j := range flat {
		flat[j] += agg[j] / totalW
	}
}

// TestWeightedReduceDeterministic: both schedules of the one fold — after
// the cut (foldCut over the included participants) and online (onlineFold
// at the in-order frontier, completions arriving in any order) — followed by
// the carried updates and the one divide (applyMean), must produce globals
// bit-identical to the serial loop, for every worker count and cohort size,
// including parameter counts that do and don't clear the minReduceShard
// gate and shard boundaries that don't divide evenly.
func TestWeightedReduceDeterministic(t *testing.T) {
	// Raise the shared token budget above this box's core count so the
	// parallel shard paths are actually exercised even on a 1-CPU runner;
	// determinism must hold at every borrowed-worker count anyway.
	cputok.Default().SetCap(16)
	defer cputok.Default().SetCap(0)
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, minReduceShard, 10 * minReduceShard} {
		for _, clients := range []int{1, 3, 9, 40} {
			ups, _ := randomUpdates(r, clients, n)
			carried, _ := randomUpdates(r, clients%3, n)
			// Every third participant's verdict failed: neither schedule
			// folds it.
			valid := make([]bool, clients)
			var in []int
			var folded []Update
			for i := range ups {
				if valid[i] = i%3 != 1 || clients == 1; valid[i] {
					in = append(in, i)
					folded = append(folded, ups[i])
				}
			}
			base := make([]float64, n)
			for j := range base {
				base[j] = r.NormFloat64()
			}
			want := slices.Clone(base)
			serialReduce(want, append(folded, carried...))
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
				got := slices.Clone(base)
				applyMean(got, agg, carried, foldCut(agg, ups, in, workers), workers)
				check(fmt.Sprintf("after the cut, workers=%d", workers), got)

				online := make([]Update, clients)
				for i := range online {
					online[i] = ups[i]
					online[i].Delta = slices.Clone(ups[i].Delta)
				}
				f := newOnlineFold(make([]float64, n), online, valid, make([]bool, clients), &deltaPool{}, clients)
				for _, i := range r.Perm(clients) {
					f.complete(i)
				}
				got = slices.Clone(base)
				applyMean(got, f.agg, carried, f.totalW, workers)
				check(fmt.Sprintf("online, workers=%d", workers), got)
			}
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

// lateCarrier is a scheme that carries a copy of each late update it is
// handed, its weight halved, into the same round's mean.
type lateCarrier struct{ carried int }

func (*lateCarrier) Name() string                                     { return "late-carrier" }
func (*lateCarrier) PlanRound(int, *History) RoundPlan                { return RoundPlan{Deadline: math.Inf(1)} }
func (*lateCarrier) NewController(*Client, int, RoundPlan) Controller { return NopController{} }
func (c *lateCarrier) Carry(_ int, late []Update) []Update {
	out := make([]Update, len(late))
	for i, u := range late {
		out[i] = Update{ClientID: u.ClientID, Weight: u.Weight / 2, Delta: slices.Clone(u.Delta)}
	}
	c.carried += len(out)
	return out
}

// TestRecyclePoolsEveryDeltaOnce: on rounds folded after a partial cut, with
// a scheme carrying late updates, every delta the runner handed out goes
// back to the pool exactly once — the pool holds one vector per participant
// after each round, no vector twice — and no update in the result still
// holds one (whoever pools a delta nils it).
func TestRecyclePoolsEveryDeltaOnce(t *testing.T) {
	train, test := benchData("cnn", 64), benchData("cnn", 32)
	cs := make([]*Client, 5)
	for i := range cs {
		cs[i] = roundClient(train, 8)
		cs[i].ID = i
	}
	cfg := Config{LocalIters: 2, BatchSize: 8, LR: 0.05, BaseIterTime: 0.1, AggregateFraction: 0.5}
	sc := &lateCarrier{}
	r, err := NewFleetRunner(cfg, NewStaticFleet(cs), sc, test, cnnNets{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res := r.RunRound()
		for _, us := range [][]Update{res.Collected, res.Discarded} {
			for _, u := range us {
				if u.Delta != nil {
					t.Fatalf("round %d: client %d's update still holds its delta", round, u.ClientID)
				}
			}
		}
		seen := make(map[*float64]bool)
		for _, v := range r.pool.free {
			if seen[&v[0]] {
				t.Fatalf("round %d: a delta was pooled twice", round)
			}
			seen[&v[0]] = true
		}
		if len(r.pool.free) != len(cs) {
			t.Fatalf("round %d: the pool holds %d deltas, want one per participant (%d)", round, len(r.pool.free), len(cs))
		}
	}
	if sc.carried == 0 {
		t.Fatal("the cut left no late update to carry")
	}
}

// BenchmarkWeightedReduce measures the after-the-cut schedule at a
// CNN-scale parameter count across worker counts (workers=1 is the serial
// loop).
func BenchmarkWeightedReduce(b *testing.B) {
	const n, clients = 1 << 18, 16
	r := rand.New(rand.NewSource(2))
	ups, _ := randomUpdates(r, clients, n)
	in := make([]int, clients)
	for i := range in {
		in[i] = i
	}
	flat := make([]float64, n)
	agg := make([]float64, n)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				applyMean(flat, agg, nil, foldCut(agg, ups, in, workers), workers)
			}
		})
	}
}
