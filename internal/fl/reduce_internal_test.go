package fl

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fedca/internal/cputok"
	"fedca/internal/data"
	"fedca/internal/simnet"
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
// the fold's only reference: the folded updates, in order, accumulate
// unnormalized, agg[j] += w·d[j], with their weights summed in the same
// order, and flat[j] += agg[j]/W once.
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

// TestWeightedReduceDeterministic: the fold (onlineFold at the in-order
// frontier, completions arriving in any order) followed by the carried
// updates and the one divide (applyMean) must produce globals bit-identical
// to the serial loop, for every worker count and cohort size, including
// parameter counts that do and don't clear the minReduceShard gate and
// shard boundaries that don't divide evenly.
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
			// Every third participant's verdict failed: the fold skips it.
			valid := make([]bool, clients)
			var folded []Update
			for i := range ups {
				if valid[i] = i%3 != 1 || clients == 1; valid[i] {
					folded = append(folded, ups[i])
				}
			}
			base := make([]float64, n)
			for j := range base {
				base[j] = r.NormFloat64()
			}
			want := slices.Clone(base)
			serialReduce(want, append(folded, carried...))
			for _, workers := range []int{1, 2, 4, 13} {
				online := make([]Update, clients)
				for i := range online {
					online[i] = ups[i]
					online[i].Delta = slices.Clone(ups[i].Delta)
				}
				f := newOnlineFold(make([]float64, n), online, valid, make([]bool, clients), &deltaPool{}, clients, clients)
				for _, i := range r.Perm(clients) {
					f.complete(i)
				}
				got := slices.Clone(base)
				applyMean(got, f.agg, carried, f.totalW, workers)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("n=%d clients=%d workers=%d: flat[%d] = %v, serial %v",
							n, clients, workers, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// foldCase is one round's worth of finished updates for the fold to decide:
// completion times with ties, dropped clients, failed verdicts, the cut's
// take, and the order in which the updates finish.
type foldCase struct {
	ups   []Update
	valid []bool
	take  int
	order []int
}

func (c foldCase) String() string {
	var keys []string
	for i, u := range c.ups {
		keys = append(keys, fmt.Sprintf("(%v,%d,valid=%v)", u.CompletionTime, u.ClientID, c.valid[i]))
	}
	return fmt.Sprintf("updates %v, take %d, completing in order %v", keys, c.take, c.order)
}

// checkFoldDecidesTheCut feeds c's updates to a fold in c.order and checks
// it against the cut: the fold must finish, fold exactly the cut's
// collected valid updates in participant order — its accumulator and weight
// bit-equal to serialReduce over them — and leave exactly the cut's late
// updates holding their deltas for Carry.
func checkFoldDecidesTheCut(t *testing.T, c foldCase) {
	t.Helper()
	n := len(c.ups)
	ups := slices.Clone(c.ups)
	for i := range ups {
		ups[i].Delta = slices.Clone(c.ups[i].Delta)
	}
	params := len(ups[0].Delta)
	f := newOnlineFold(make([]float64, params), ups, c.valid, make([]bool, n), &deltaPool{}, n, c.take)
	for _, i := range c.order {
		f.complete(i)
	}
	if f.next != n {
		t.Fatalf("%v: the frontier stopped at %d of %d", c, f.next, n)
	}

	// A fraction whose ceiling is exactly take at n.
	r := &Runner{Cfg: Config{AggregateFraction: (float64(c.take) - 0.5) / float64(n)}}
	cut := r.cut(ups, c.valid)
	index := make(map[int]int, n)
	for i, u := range ups {
		index[u.ClientID] = i
	}
	var in []int
	for _, u := range cut.collected {
		in = append(in, index[u.ClientID])
	}
	slices.Sort(in)
	late := make(map[int]bool)
	for _, i := range cut.late {
		late[i] = true
	}
	for i, u := range ups {
		if held := u.Delta != nil; held != late[i] {
			t.Fatalf("%v: update %d holds its delta: %v, late after the cut: %v", c, i, held, late[i])
		}
	}

	var folded []Update
	var wantW float64
	for _, i := range in {
		folded = append(folded, c.ups[i])
		wantW += c.ups[i].Weight
	}
	if f.totalW != wantW {
		t.Fatalf("%v: folded weight %v, the cut's collected updates weigh %v", c, f.totalW, wantW)
	}
	if len(in) == 0 {
		if slices.ContainsFunc(f.agg, func(v float64) bool { return v != 0 }) {
			t.Fatalf("%v: the cut collected nothing, the fold accumulated %v", c, f.agg)
		}
		return
	}
	base := make([]float64, params)
	for j := range base {
		base[j] = float64(j) - 1.5
	}
	want, got := slices.Clone(base), slices.Clone(base)
	serialReduce(want, folded)
	applyMean(got, f.agg, nil, f.totalW, 1)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%v: flat[%d] = %v, serial %v", c, j, got[j], want[j])
		}
	}
}

// randomFoldCase draws n updates from r: completion times from a few
// values, so ties are common (broken by the shuffled client ids), about one
// in six dropped (+Inf) and one in six failing its verdict.
func randomFoldCase(r *rand.Rand, n, take int) foldCase {
	ups, _ := randomUpdates(r, n, 3)
	valid := make([]bool, n)
	ids := r.Perm(n)
	for i := range ups {
		ups[i].ClientID = 10 + ids[i]
		ups[i].CompletionTime = float64(r.Intn(4))
		if r.Intn(6) == 0 {
			ups[i].Dropped, ups[i].CompletionTime = true, math.Inf(1)
		}
		valid[i] = r.Intn(6) != 0
	}
	return foldCase{ups: ups, valid: valid, take: take, order: r.Perm(n)}
}

// TestFoldDecidesTheCut: for every take from 1 to n, the fold decides each
// update's place in the cut from the finished updates alone and folds what
// the cut collects — every completion order for n ≤ 6, random ones at 40.
func TestFoldDecidesTheCut(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 1; n <= 6; n++ {
		for range 4 {
			for take := 1; take <= n; take++ {
				c := randomFoldCase(r, n, take)
				permute(c.order, 0, func() { checkFoldDecidesTheCut(t, c) })
			}
		}
	}
	for range 200 {
		checkFoldDecidesTheCut(t, randomFoldCase(r, 40, 1+r.Intn(40)))
	}
}

// permute calls f once for every ordering of s[k:] (Heap's algorithm would
// do as well; this is the plain recursive swap).
func permute(s []int, k int, f func()) {
	if k >= len(s)-1 {
		f()
		return
	}
	for i := k; i < len(s); i++ {
		s[k], s[i] = s[i], s[k]
		permute(s, k+1, f)
		s[k], s[i] = s[i], s[k]
	}
}

// FuzzFoldDecidesTheCut: the fold folds the cut's collected set for any
// round the fuzzer spells out. data[0] sizes the round (1 to 16 updates),
// data[1] picks the take, then one byte per update — its completion time
// in the low two bits, dropped at 0x10, a failed verdict at 0x20 — and the
// rest seeds the completion order.
func FuzzFoldDecidesTheCut(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 1, 0x12, 0x21, 7})
	f.Add([]byte{8, 7, 3, 2, 1, 0, 3, 2, 1, 0, 0})
	f.Add([]byte{1, 0, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%16
		take := 1 + int(data[1])%n
		data = data[2:]
		c := foldCase{ups: make([]Update, n), valid: make([]bool, n), take: take}
		var seed int64
		for i := range c.ups {
			var b byte
			if i < len(data) {
				b = data[i]
			}
			u := &c.ups[i]
			u.ClientID, u.Weight = n-i, 1+float64(b%7)
			u.CompletionTime = float64(b & 3)
			if b&0x10 != 0 {
				u.Dropped, u.CompletionTime = true, math.Inf(1)
			}
			u.Delta = []float64{float64(b), 1 / float64(1+i), -0.25}
			c.valid[i] = b&0x20 == 0
		}
		for _, b := range data[min(n, len(data)):] {
			seed = seed*131 + int64(b)
		}
		c.order = rand.New(rand.NewSource(seed)).Perm(n)
		checkFoldDecidesTheCut(t, c)
	})
}

// TestOnlineFoldMatchesAnyCompletionOrder: folding updates at the in-order
// frontier must yield the same accumulator, weight total and quarantine
// verdicts no matter which order completions arrive in — the property that
// makes the fold worker-count invariant.
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
		f := newOnlineFold(make([]float64, n), ups, slices.Repeat([]bool{true}, clients), make([]bool, clients), &deltaPool{}, clients, clients)
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
		f := newOnlineFold(make([]float64, n), ups, slices.Repeat([]bool{true}, clients), make([]bool, clients), &deltaPool{}, window, clients)
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
type lateCarrier struct {
	carried int
	// finals, when set, receives each client's final update by client id
	// (see KeepFinal).
	finals [][]float64
}

func (*lateCarrier) Name() string                      { return "late-carrier" }
func (*lateCarrier) PlanRound(int, *History) RoundPlan { return RoundPlan{Deadline: math.Inf(1)} }
func (c *lateCarrier) NewController(cl *Client, _ int, _ RoundPlan) Controller {
	if c.finals == nil {
		return NopController{}
	}
	return KeepFinal{Dst: &c.finals[cl.ID]}
}
func (c *lateCarrier) Carry(_ int, late []Update) []Update {
	out := make([]Update, len(late))
	for i, u := range late {
		out[i] = Update{ClientID: u.ClientID, Weight: u.Weight / 2, Delta: slices.Clone(u.Delta)}
	}
	c.carried += len(out)
	return out
}

// KeepFinal is a controller that copies its client's final accumulated
// update into *Dst: the delta the server receives when nothing is sent
// eagerly, compressed or corrupted. A dropped round, which has no delta,
// leaves *Dst as it was. The package's external tests use it too.
type KeepFinal struct {
	NopController
	Dst *[]float64
}

func (c KeepFinal) Finalize(st FinalState) FinalAction {
	if st.Dropped {
		return FinalAction{}
	}
	*c.Dst = slices.Clone(st.Delta)
	return FinalAction{}
}

// foldClients returns n identical clients with ids 0 to n−1 over a small
// CNN training set, and its test set.
func foldClients(n int) ([]*Client, *data.Dataset) {
	train := benchData("cnn", 64)
	cs := make([]*Client, n)
	for i := range cs {
		cs[i] = roundClient(train, 8)
		cs[i].ID = i
	}
	return cs, benchData("cnn", 32)
}

// checkPoolOnce fails unless no update in res still holds a delta, the
// pool holds no vector twice (whoever pools a delta nils it), and the pool
// still holds every vector in pooled, the ones it held after earlier rounds:
// every delta is back at a round's end, so one missing was dropped, not
// pooled. It adds the pool's vectors to pooled and returns how many it holds.
func checkPoolOnce(t *testing.T, r *Runner, res RoundResult, round int, pooled map[*float64]bool) int {
	t.Helper()
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
	for p := range pooled {
		if !seen[p] {
			t.Fatalf("round %d: a delta the pool held before was not pooled again", round)
		}
	}
	maps.Copy(pooled, seen)
	return len(r.pool.free)
}

// CheckPoolOnce is checkPoolOnce for the package's external tests, which
// drive the runner with baseline's schemes.
var CheckPoolOnce = checkPoolOnce

// TestRecyclePoolsEveryDeltaOnce: on rounds cut at ⌈0.5·5⌉ = 3, with a
// scheme carrying late updates, every delta the runner handed out goes back
// to the pool exactly once, and no update in the result still holds one.
// The pool holds fewer vectors than the cohort after each round. The
// clients tie in completion time, so the cut takes 0, 1 and 2, and the two
// late deltas live until it. Participant 0 folds once it and two others have
// finished, so the five are never live at once: at 2 tokens a worker that
// finished 2 waits while 0 trains. Four are, on the schedule where 1 and 2
// finish undecided and 4 overtakes 3; that is why this bound is not twice
// the worker count, which holds only for a cut that takes the whole cohort
// (TestWholeCohortCutHoldsAWindow). Then the pool is topped up to one
// vector per participant, so a round never allocates one: each round must
// end with the pool holding exactly those, and a delta dropped on any path
// (folded, recycled as invalid or dropped, or pooled after Carry) leaves it
// one short.
func TestRecyclePoolsEveryDeltaOnce(t *testing.T) {
	setTokenCap(t, 2)
	cs, test := foldClients(5)
	cfg := Config{LocalIters: 2, BatchSize: 8, LR: 0.05, BaseIterTime: 0.1, AggregateFraction: 0.5}
	sc := &lateCarrier{}
	r, err := NewFleetRunner(cfg, NewStaticFleet(cs), sc, test, cnnNets{})
	if err != nil {
		t.Fatal(err)
	}
	pooled := make(map[*float64]bool)
	for round := 0; round < 3; round++ {
		res := r.RunRound()
		if n := checkPoolOnce(t, r, res, round, pooled); n >= len(cs) {
			t.Fatalf("round %d: the pool holds %d deltas, want fewer than one per participant (%d)", round, n, len(cs))
		}
	}
	for len(r.pool.free) < len(cs) {
		v := make([]float64, len(r.flat))
		r.pool.put(v)
		pooled[&v[0]] = true
	}
	for round := 3; round < 5; round++ {
		res := r.RunRound()
		if n := checkPoolOnce(t, r, res, round, pooled); n != len(cs) {
			t.Fatalf("round %d: the pool seeded with %d deltas holds %d", round, len(cs), n)
		}
	}
	if sc.carried != 5*2 {
		t.Fatalf("the scheme carried %d late updates in 5 rounds, want 2 a round", sc.carried)
	}
}

// updateVectors returns how many distinct update vectors r's float64 round
// engine holds: the pool's, and each worker's update in progress (a vector
// the worker has handed over is the pool's once more). The per-worker eager
// snapshot buffer is not an update and is not counted.
func updateVectors(r *Runner) int {
	held := make(map[*float64]bool)
	for _, v := range r.pool.free {
		held[&v[0]] = true
	}
	for _, w := range r.workers {
		if d := w.(*trainWorkerOf[float64]).round.delta; d != nil {
			held[&d[0]] = true
		}
	}
	return len(held)
}

// TestWholeCohortCutHoldsAWindow: a cut whose ⌈0.9·8⌉ takes the whole
// cohort decides every update as it finishes, so at 2 tokens the round
// engine holds fewer than twice the train stage's worker count of update
// vectors after every round — the pool's and the workers' updates in
// progress: the completion window, not the cohort. A worker that kept an
// update vector of its own beside the pooled one it uploads held 2·window.
func TestWholeCohortCutHoldsAWindow(t *testing.T) {
	setTokenCap(t, 2)
	cs, test := foldClients(8)
	cfg := Config{LocalIters: 2, BatchSize: 8, LR: 0.05, BaseIterTime: 0.1, AggregateFraction: 0.9}
	r, err := NewFleetRunner(cfg, NewStaticFleet(cs), &lateCarrier{}, test, cnnNets{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.workers) != 2 {
		t.Fatalf("%d training workers at 2 tokens", len(r.workers))
	}
	pooled := make(map[*float64]bool)
	for round := 0; round < 4; round++ {
		res := r.RunRound()
		if len(res.Collected) != len(cs) {
			t.Fatalf("round %d: the cut collected %d of %d", round, len(res.Collected), len(cs))
		}
		checkPoolOnce(t, r, res, round, pooled)
		if n := updateVectors(r); n >= 2*len(r.workers) {
			t.Fatalf("round %d: the round engine holds %d update vectors, want fewer than 2×%d workers", round, n, len(r.workers))
		}
	}
}

// TestFoldLiveness: at 2 tokens, a round whose first participant uploads
// slowest completes last in virtual time, so its finished update stays
// undecided at the frontier until the stage's last completion (the cut takes
// 7 of 8, and it is the eighth). A worker that waited on that finished
// frontier would wait for completions only it could train, and the round
// would never end. The round must finish, fold the other seven in
// participant order and carry the first: the global model is bit-equal to
// serialReduce over them.
func TestFoldLiveness(t *testing.T) {
	setTokenCap(t, 2)
	cs, test := foldClients(8)
	cs[0].Up = simnet.NewLink(simnet.DefaultClientBandwidth/1000, 0)
	cfg := Config{LocalIters: 2, BatchSize: 8, LR: 0.05, BaseIterTime: 0.1, AggregateFraction: 0.87}
	sc := &lateCarrier{finals: make([][]float64, len(cs))}
	r, err := NewFleetRunner(cfg, NewStaticFleet(cs), sc, test, cnnNets{})
	if err != nil {
		t.Fatal(err)
	}
	want := r.GlobalFlat()
	done := make(chan RoundResult)
	go func() { done <- r.RunRound() }()
	var res RoundResult
	select {
	case res = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the round did not finish: a worker waits on the fold")
	}
	if len(res.Discarded) != 1 || res.Discarded[0].ClientID != 0 || sc.carried != 1 {
		t.Fatalf("discarded %d updates, carried %d; want client 0's, carried", len(res.Discarded), sc.carried)
	}
	folded := slices.Clone(res.Collected)
	slices.SortFunc(folded, func(a, b Update) int { return a.ClientID - b.ClientID })
	for i := range folded {
		folded[i].Delta = sc.finals[folded[i].ClientID]
	}
	late := res.Discarded[0]
	serialReduce(want, append(folded, Update{Weight: late.Weight / 2, Delta: sc.finals[0]}))
	for j, v := range r.GlobalFlat() {
		if v != want[j] {
			t.Fatalf("flat[%d] = %v, serial %v", j, v, want[j])
		}
	}
}

// BenchmarkWeightedReduce measures the fold and the apply at a CNN-scale
// parameter count across worker counts (workers=1 is the serial loop; the
// fold is serial at any count).
func BenchmarkWeightedReduce(b *testing.B) {
	const n, clients = 1 << 18, 16
	r := rand.New(rand.NewSource(2))
	ups, _ := randomUpdates(r, clients, n)
	deltas := make([][]float64, clients)
	for k, u := range ups {
		deltas[k] = u.Delta
	}
	valid := slices.Repeat([]bool{true}, clients)
	done := make([]bool, clients)
	flat := make([]float64, n)
	agg := make([]float64, n)
	pool := &deltaPool{}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(agg)
				clear(done)
				// The fold pools each delta it folds; hand them back.
				for k := range ups {
					ups[k].Delta = deltas[k]
				}
				pool.free = pool.free[:0]
				f := newOnlineFold(agg, ups, valid, done, pool, clients, clients)
				for k := range ups {
					f.complete(k)
				}
				applyMean(flat, agg, nil, f.totalW, workers)
			}
		})
	}
}
