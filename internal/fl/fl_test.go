package fl_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/compress"
	"fedca/internal/data"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

// tinyWorkload is a CNN workload small enough for unit tests.
func tinyWorkload() expcfg.Workload {
	w := expcfg.CNN()
	w.Img.Height, w.Img.Width = 8, 8
	w.Wrn.Image = w.Img
	w.Img.Classes = 4
	w.FL.BaseIterTime = 0.1
	w.FL.ModelBytes = 0 // derive from params
	w.FL.RetainUpdateDeltas = true
	w.FL.LocalIters, w.FL.BatchSize = 8, 16
	w.TrainN, w.TestN = 256, 128
	return w
}

// roundRecords runs n rounds and returns their records, each of which
// carries the global model's digest.
func roundRecords(r *fl.Runner, n int) []fl.RoundRecord {
	recs := make([]fl.RoundRecord, n)
	for i := range recs {
		recs[i] = r.RunRound().RoundRecord
	}
	return recs
}

func TestDeltasDroppedByDefault(t *testing.T) {
	w := tinyWorkload()
	w.FL.RetainUpdateDeltas = false
	tb := expcfg.Build(w, 2, trace.Config{}, 99)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	for _, u := range res.Collected {
		if u.Delta != nil {
			t.Fatal("Delta must be dropped unless RetainUpdateDeltas is set")
		}
	}
}

func tinyTestbed(t *testing.T, n int, tcfg trace.Config, seed uint64) *expcfg.Testbed {
	t.Helper()
	return expcfg.Build(tinyWorkload(), n, tcfg, seed)
}

// ctrlScheme is FedAvg with every client's controller supplied by the test,
// so a test drives one client round through the runner like any scheme.
type ctrlScheme struct {
	baseline.FedAvg
	ctrl fl.Controller
}

func (s ctrlScheme) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller { return s.ctrl }

// onlyUpdate runs one round of a one-client runner and returns its update.
func onlyUpdate(t *testing.T, r *fl.Runner) fl.Update {
	t.Helper()
	res := r.RunRound()
	all := append(res.Collected, res.Discarded...)
	if len(all) != 1 {
		t.Fatalf("round has %d updates, want 1", len(all))
	}
	return all[0]
}

func TestConfigValidate(t *testing.T) {
	good := fl.Config{LocalIters: 10, BatchSize: 4, LR: 0.1, AggregateFraction: 0.9, BaseIterTime: 0.1}
	if err := good.Validate(100); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if good.ModelBytes != 400 {
		t.Fatalf("ModelBytes default = %v, want 400", good.ModelBytes)
	}
	bad := []fl.Config{
		{LocalIters: 0, BatchSize: 4, LR: 0.1, AggregateFraction: 0.9, BaseIterTime: 0.1},
		{LocalIters: 10, BatchSize: 0, LR: 0.1, AggregateFraction: 0.9, BaseIterTime: 0.1},
		{LocalIters: 10, BatchSize: 4, LR: 0, AggregateFraction: 0.9, BaseIterTime: 0.1},
		{LocalIters: 10, BatchSize: 4, LR: 0.1, AggregateFraction: 0, BaseIterTime: 0.1},
		{LocalIters: 10, BatchSize: 4, LR: 0.1, AggregateFraction: 1.5, BaseIterTime: 0.1},
		{LocalIters: 10, BatchSize: 4, LR: 0.1, AggregateFraction: 0.9, BaseIterTime: 0},
	}
	for i, c := range bad {
		if err := c.Validate(100); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestRunRoundBasics(t *testing.T) {
	tb := tinyTestbed(t, 8, trace.Config{}, 1)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	if res.Index != 0 {
		t.Fatalf("round = %d", res.Index)
	}
	// 90% of 8 → ceil(7.2) = 8: all collected.
	if len(res.Collected) != 8 || len(res.Discarded) != 0 {
		t.Fatalf("collected %d, discarded %d", len(res.Collected), len(res.Discarded))
	}
	if res.End <= res.Start {
		t.Fatalf("round has non-positive duration: %v..%v", res.Start, res.End)
	}
	for _, u := range res.Collected {
		if u.Iterations != 8 {
			t.Fatalf("FedAvg client ran %d iterations, want 8", u.Iterations)
		}
		if u.EagerSent != 0 {
			t.Fatal("FedAvg must not transmit eagerly")
		}
	}
	if res.MeanIterations != 8 {
		t.Fatalf("mean iterations %v", res.MeanIterations)
	}
}

func TestPartialAggregationDiscardsStragglers(t *testing.T) {
	w := tinyWorkload()
	w.FL.AggregateFraction = 0.75
	tb := expcfg.Build(w, 8, trace.Config{HeterogeneitySigma: 1.2}, 2)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	if len(res.Collected) != 6 || len(res.Discarded) != 2 {
		t.Fatalf("collected %d / discarded %d, want 6/2", len(res.Collected), len(res.Discarded))
	}
	// Every discarded client must have completed no earlier than every
	// collected one.
	maxCollected := 0.0
	for _, u := range res.Collected {
		if u.CompletionTime > maxCollected {
			maxCollected = u.CompletionTime
		}
	}
	for _, u := range res.Discarded {
		if u.CompletionTime < maxCollected {
			t.Fatalf("discarded client finished at %v before collected max %v", u.CompletionTime, maxCollected)
		}
	}
	if res.End != maxCollected {
		t.Fatalf("round end %v != last collected completion %v", res.End, maxCollected)
	}
}

func TestAggregationMovesGlobalModel(t *testing.T) {
	tb := tinyTestbed(t, 4, trace.Config{}, 3)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	before := r.GlobalFlat()
	r.RunRound()
	after := r.GlobalFlat()
	moved := 0
	for i := range before {
		if before[i] != after[i] {
			moved++
		}
	}
	if moved < len(before)/2 {
		t.Fatalf("aggregation changed only %d/%d params", moved, len(before))
	}
}

func TestAggregationIsWeightedMean(t *testing.T) {
	// With one client, the global model must become exactly that client's
	// final parameters.
	tb := tinyTestbed(t, 1, trace.Config{}, 4)
	tbCopy := tinyTestbed(t, 1, trace.Config{}, 4)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	u := res.Collected[0]
	// Reconstruct: global_after = global_before + delta.
	rc, err := tbCopy.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	before := rc.GlobalFlat()
	after := r.GlobalFlat()
	for i := range before {
		want := before[i] + u.Delta[i]
		if math.Abs(after[i]-want) > 1e-12 {
			t.Fatalf("param %d: got %v, want %v", i, after[i], want)
		}
	}
}

func TestVirtualTimeAdvancesAcrossRounds(t *testing.T) {
	tb := tinyTestbed(t, 4, trace.Config{}, 5)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := r.RunRound()
	r2 := r.RunRound()
	if r2.Start != r1.End {
		t.Fatalf("round 2 starts at %v, want %v", r2.Start, r1.End)
	}
	if r.Now() != r2.End {
		t.Fatalf("runner clock %v, want %v", r.Now(), r2.End)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []float64 {
		tb := tinyTestbed(t, 6, trace.PaperConfig(), 6)
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		r.RunRound()
		res := r.RunRound()
		out := r.GlobalFlat()
		return append(out, res.End)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSlowClientsFinishLater(t *testing.T) {
	tb := tinyTestbed(t, 8, trace.Config{HeterogeneitySigma: 1.0}, 7)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	all := append(append([]fl.Update{}, res.Collected...), res.Discarded...)
	// Completion order must match static speed order (same iteration count,
	// same payload, static-only speeds).
	for _, ua := range all {
		for _, ub := range all {
			sa := tb.Clients[ua.ClientID].Speed.Static
			sb := tb.Clients[ub.ClientID].Speed.Static
			if sa < sb && ua.CompletionTime > ub.CompletionTime {
				t.Fatalf("faster client %d (%.2f) finished after slower %d (%.2f)", ua.ClientID, sa, ub.ClientID, sb)
			}
		}
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	w := tinyWorkload()
	w.FL.LocalIters, w.TrainN, w.TestN = 12, 512, 256
	tb := expcfg.Build(w, 4, trace.Config{}, 8)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	first := r.RunRound().Accuracy
	var last float64
	for i := 0; i < 14; i++ {
		last = r.RunRound().Accuracy
	}
	if last < first+0.2 {
		t.Fatalf("accuracy did not improve: %v -> %v", first, last)
	}
}

func TestHistoryObserve(t *testing.T) {
	// A one-iteration round's estimate is the per-iteration time.
	h := fl.NewHistory()
	if _, ok := h.EstRoundTimes(1)[3]; ok {
		t.Fatal("empty history must have no estimates")
	}
	h.Observe(fl.Update{ClientID: 3, Iterations: 10, TrainTime: 20})
	if est, ok := h.EstRoundTimes(1)[3]; !ok || est != 2 {
		t.Fatalf("est = %v ok=%v, want 2", est, ok)
	}
	// EWMA with alpha 0.5.
	h.Observe(fl.Update{ClientID: 3, Iterations: 10, TrainTime: 40})
	if est := h.EstRoundTimes(1)[3]; est != 3 {
		t.Fatalf("ewma est = %v, want 3", est)
	}
	// Degenerate updates ignored.
	h.Observe(fl.Update{ClientID: 3, Iterations: 0, TrainTime: 40})
	if est := h.EstRoundTimes(1)[3]; est != 3 {
		t.Fatal("degenerate update must not change estimate")
	}
	if known := len(h.EstRoundTimes(1)); known != 1 {
		t.Fatalf("known = %d", known)
	}
}

func TestFedBalancerDeadline(t *testing.T) {
	// Clients finishing at 1,2,3,10: scores 1/1, 2/2, 3/3, 4/10 → deadline 1
	// (first maximum wins).
	est := map[int]float64{0: 1, 1: 2, 2: 3, 3: 10}
	if d := fl.FedBalancerDeadline(est); d != 1 {
		t.Fatalf("deadline = %v, want 1", d)
	}
	// One dominant cluster: 9 clients at 5, one at 50 → deadline 5.
	est2 := map[int]float64{}
	for i := 0; i < 9; i++ {
		est2[i] = 5
	}
	est2[9] = 50
	if d := fl.FedBalancerDeadline(est2); d != 5 {
		t.Fatalf("deadline = %v, want 5", d)
	}
	if d := fl.FedBalancerDeadline(nil); !math.IsInf(d, 1) {
		t.Fatalf("empty estimates should give +Inf, got %v", d)
	}
}

func TestEvaluate(t *testing.T) {
	r := rng.New(10)
	net := nn.NewNetworkOf[float64](nn.NewDenseOf[float64]("fc", 4, 2, r))
	ds := data.NewImageGenerator(data.ImageSpec{Classes: 2, Channels: 1, Height: 2, Width: 2}, rng.New(11)).Generate(10, rng.New(12))
	acc := fl.Evaluate(net, ds, 3) // batch not dividing N exercises the tail
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
	full := fl.Evaluate(net, ds, 0)
	if math.Abs(acc-full) > 1e-12 {
		t.Fatalf("batched accuracy %v != full-pass accuracy %v", acc, full)
	}
}

// eagerScheme exercises the eager-transmission path deterministically: every
// client transmits layer 0 after iteration 2, asks for it again after
// iteration 5 (the runner sends a layer at most once per round), and
// retransmits it at round end.
type eagerScheme struct{ retransmit bool }

func (eagerScheme) Name() string { return "eager-test" }
func (eagerScheme) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline()}
}
func (s eagerScheme) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return &eagerCtrl{retransmit: s.retransmit}
}

type eagerCtrl struct {
	fl.NopController
	retransmit bool
}

func (c *eagerCtrl) AfterIteration(st fl.IterState) fl.IterAction {
	switch st.Iter {
	case 2:
		return fl.IterAction{EagerLayers: []int{0, 0}} // duplicate must be deduped
	case 5:
		return fl.IterAction{EagerLayers: []int{0}} // so must a later repeat
	}
	return fl.IterAction{}
}

func (c *eagerCtrl) Finalize(st fl.FinalState) fl.FinalAction {
	if c.retransmit {
		idx := make([]int, len(st.Eager))
		for i := range idx {
			idx[i] = i
		}
		return fl.FinalAction{Retransmit: idx}
	}
	return fl.FinalAction{}
}

func TestEagerTransmissionStaleSnapshot(t *testing.T) {
	tb := tinyTestbed(t, 2, trace.Config{}, 12)
	r, err := tb.NewRunner(eagerScheme{retransmit: false})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	for _, u := range res.Collected {
		if u.EagerSent != 1 {
			t.Fatalf("eager sent = %d, want 1 (dedup)", u.EagerSent)
		}
		if u.Retransmitted != 0 {
			t.Fatal("no retransmission requested")
		}
	}
	want := make([]int, r.Cfg.LocalIters+1)
	want[2] = len(res.Collected) + len(res.Discarded)
	if got := r.Stats().EagerByIter; !slices.Equal(got, want) {
		t.Fatalf("standing eager sends by iteration = %v, want %v", got, want)
	}
}

func TestRetransmissionRestoresFinalValues(t *testing.T) {
	// With retransmission, the server-visible delta must equal the pure
	// FedAvg delta (same seed, same trajectory).
	tbA := tinyTestbed(t, 2, trace.Config{}, 13)
	tbB := tinyTestbed(t, 2, trace.Config{}, 13)
	ra, err := tbA.NewRunner(eagerScheme{retransmit: true})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := tbB.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	ua := ra.RunRound().Collected
	ub := rb.RunRound().Collected
	for i := range ua {
		if ua[i].Retransmitted != 1 {
			t.Fatalf("retransmitted = %d", ua[i].Retransmitted)
		}
		for j := range ua[i].Delta {
			if ua[i].Delta[j] != ub[i].Delta[j] {
				t.Fatalf("retransmitted delta differs from FedAvg at %d", j)
			}
		}
	}
}

func TestEagerWithoutRetransmissionDiffersOnLayer0(t *testing.T) {
	tbA := tinyTestbed(t, 1, trace.Config{}, 14)
	tbB := tinyTestbed(t, 1, trace.Config{}, 14)
	ra, _ := tbA.NewRunner(eagerScheme{retransmit: false})
	rb, _ := tbB.NewRunner(baseline.FedAvg{})
	ua := ra.RunRound().Collected[0]
	ub := rb.RunRound().Collected[0]
	// Layer 0 (conv1.weight) must hold the stale iteration-2 snapshot.
	net := tbA.Nets.New64()
	rg := net.ParamRanges()[0]
	differs := false
	for j := rg.Start; j < rg.End; j++ {
		if ua.Delta[j] != ub.Delta[j] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("stale eager layer should differ from the final update")
	}
	// All other layers must match exactly.
	for j := rg.End; j < len(ua.Delta); j++ {
		if ua.Delta[j] != ub.Delta[j] {
			t.Fatalf("non-eager region differs at %d", j)
		}
	}
}

func TestEagerUploadOverlapsCompute(t *testing.T) {
	// An eager transfer's completion must precede the final upload start
	// whenever compute continues long enough — the overlap FedCA exploits.
	w := tinyWorkload()
	w.FL.ModelBytes = 8e6 // large model so transfers take visible time
	r, err := expcfg.Build(w, 1, trace.Config{}, 15).NewRunner(eagerScheme{})
	if err != nil {
		t.Fatal(err)
	}
	u := onlyUpdate(t, r)
	if u.EagerSent != 1 {
		t.Fatalf("eager sent %d", u.EagerSent)
	}
	// Final completion accounts for the full model; the eagerly sent layer
	// finished earlier (overlap) unless it queued to the very end.
	if u.CompletionTime <= u.TrainTime {
		t.Fatal("completion must include upload time")
	}
}

// budgetScheme caps iterations via the plan.
type budgetScheme struct{ budget int }

func (budgetScheme) Name() string { return "budget-test" }
func (s budgetScheme) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline(), IterBudget: map[int]int{0: s.budget}}
}
func (budgetScheme) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return fl.NopController{}
}

func TestIterBudgetRespected(t *testing.T) {
	tb := tinyTestbed(t, 2, trace.Config{}, 16)
	r, err := tb.NewRunner(budgetScheme{budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound()
	for _, u := range append(res.Collected, res.Discarded...) {
		want := 8
		if u.ClientID == 0 {
			want = 3
		}
		if u.Iterations != want {
			t.Fatalf("client %d ran %d iterations, want %d", u.ClientID, u.Iterations, want)
		}
	}
}

// stopScheme stops all clients after a fixed iteration.
type stopScheme struct{ at int }

func (stopScheme) Name() string { return "stop-test" }
func (stopScheme) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline()}
}
func (s stopScheme) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return &stopCtrl{at: s.at}
}

type stopCtrl struct {
	fl.NopController
	at int
}

func (c *stopCtrl) AfterIteration(st fl.IterState) fl.IterAction {
	return fl.IterAction{Stop: st.Iter >= c.at}
}

func TestEarlyStopShortensRound(t *testing.T) {
	tbA := tinyTestbed(t, 4, trace.Config{}, 17)
	tbB := tinyTestbed(t, 4, trace.Config{}, 17)
	ra, _ := tbA.NewRunner(stopScheme{at: 2})
	rb, _ := tbB.NewRunner(baseline.FedAvg{})
	a := ra.RunRound()
	b := rb.RunRound()
	if a.Duration() >= b.Duration() {
		t.Fatalf("early stop round %v not shorter than FedAvg %v", a.Duration(), b.Duration())
	}
	for _, u := range a.Collected {
		if u.Iterations != 2 {
			t.Fatalf("iterations = %d, want 2", u.Iterations)
		}
	}
}

func TestClientLinkResetBetweenRounds(t *testing.T) {
	// A straggler's abandoned upload must not corrupt the next round.
	w := tinyWorkload()
	w.FL.AggregateFraction = 0.5
	tb := expcfg.Build(w, 4, trace.Config{HeterogeneitySigma: 1.5}, 18)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	// Would panic on FIFO violation if links weren't reset.
	r.RunRound()
	r.RunRound()
	r.RunRound()
}

func TestDeltaObservedGrowsOverIterations(t *testing.T) {
	// The IterState delta norm should generally grow early in a round.
	tb := tinyTestbed(t, 1, trace.Config{}, 19)
	var norms []float64
	r, err := tb.NewRunner(ctrlScheme{ctrl: &recordCtrl{norms: &norms}})
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound()
	if len(norms) != tb.Workload.FL.LocalIters {
		t.Fatalf("observed %d iterations", len(norms))
	}
	if norms[0] <= 0 {
		t.Fatal("first-iteration delta must be non-zero")
	}
	if norms[len(norms)-1] <= norms[0] {
		t.Fatalf("delta norm did not grow: %v .. %v", norms[0], norms[len(norms)-1])
	}
}

type recordCtrl struct {
	fl.NopController
	norms *[]float64
}

func (c *recordCtrl) AfterIteration(st fl.IterState) fl.IterAction {
	s := 0.0
	for _, v := range st.Accumulated() {
		s += v * v
	}
	*c.norms = append(*c.norms, math.Sqrt(s))
	return fl.IterAction{}
}

// TestUpdateWeightIsSampleCount: an update weighs as many as the rows its
// client trains on — the length of the view its loader reads, taken from the
// unexported field rather than widen data's surface for a test.
func TestUpdateWeightIsSampleCount(t *testing.T) {
	tb := tinyTestbed(t, 3, trace.Config{}, 20)
	r, _ := tb.NewRunner(baseline.FedAvg{})
	res := r.RunRound()
	for _, u := range res.Collected {
		n := reflect.ValueOf(tb.Clients[u.ClientID].Loader).Elem().FieldByName("view").Len()
		if u.Weight != float64(n) {
			t.Fatalf("weight %v != sample count %d", u.Weight, n)
		}
	}
}

// denseNets builds a one-layer network at either dtype.
type denseNets struct{}

func (denseNets) New64() *nn.Network {
	return nn.NewNetworkOf[float64](nn.NewDenseOf[float64]("fc", 2, 2, rng.New(1)))
}
func (denseNets) New32() *nn.NetworkOf[float32] {
	return nn.NewNetworkOf[float32](nn.NewDenseOf[float32]("fc", 2, 2, rng.New(1)))
}

func TestNewRunnerRejectsEmptyClients(t *testing.T) {
	w := tinyWorkload()
	for _, fleet := range []fl.Fleet{nil, fl.NewStaticFleet(nil)} {
		if _, err := fl.NewFleetRunner(w.FL, fleet, baseline.FedAvg{}, nil, denseNets{}); err == nil {
			t.Fatalf("fleet %v: expected error", fleet)
		}
	}
}

func TestCompressionReducesUploadBytes(t *testing.T) {
	base := tinyWorkload()
	run := func(c compress.Compressor) float64 {
		w := base
		w.FL.Compressor = c
		tb := expcfg.Build(w, 2, trace.Config{}, 40)
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		res := r.RunRound()
		total := 0.0
		for _, u := range res.Collected {
			total += u.UploadBytes
		}
		return total
	}
	full := run(nil)
	quant := run(compress.QSGD{Levels: 7})
	sparse := run(compress.TopK{Frac: 0.01})
	if quant >= full/4 {
		t.Fatalf("qsgd upload %v not ≪ full %v", quant, full)
	}
	if sparse >= full/10 {
		t.Fatalf("topk upload %v not ≪ full %v", sparse, full)
	}
}

func TestCompressionShortensCommBoundRounds(t *testing.T) {
	w := tinyWorkload()
	w.FL.ModelBytes = 40e6 // make the round communication-bound
	run := func(c compress.Compressor) float64 {
		wc := w
		wc.FL.Compressor = c
		tb := expcfg.Build(wc, 2, trace.Config{}, 41)
		r, err := tb.NewRunner(baseline.FedAvg{})
		if err != nil {
			t.Fatal(err)
		}
		return r.RunRound().Duration()
	}
	full := run(nil)
	quant := run(compress.QSGD{Levels: 7})
	if quant >= full {
		t.Fatalf("quantized round %v not shorter than full %v", quant, full)
	}
}

func TestCompressionDegradesDeltaButPreservesDirection(t *testing.T) {
	w := tinyWorkload()
	tbA := expcfg.Build(w, 1, trace.Config{}, 42)
	tbB := expcfg.Build(w, 1, trace.Config{}, 42)
	ra, _ := tbA.NewRunner(baseline.FedAvg{})
	wq := w
	wq.FL.Compressor = compress.QSGD{Levels: 7}
	tbB.Workload = wq
	rb, err := tbB.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	ua := ra.RunRound().Collected[0]
	ub := rb.RunRound().Collected[0]
	// Same trajectory, so the quantized delta must correlate strongly with
	// the full-precision one without being identical.
	cos := cosine(ua.Delta, ub.Delta)
	if cos < 0.95 {
		t.Fatalf("quantized delta cosine = %v", cos)
	}
	same := true
	for i := range ua.Delta {
		if ua.Delta[i] != ub.Delta[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("quantization changed nothing")
	}
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func TestDropoutExcludedFromAggregation(t *testing.T) {
	w := tinyWorkload()
	w.FL.Chaos = dropEngine(t, 0.5, 30)
	tb := expcfg.Build(w, 8, trace.Config{}, 30)
	r, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	sawDrop := false
	for i := 0; i < 4; i++ {
		res := r.RunRound()
		for _, u := range res.Collected {
			if u.Dropped {
				t.Fatal("dropped client aggregated")
			}
		}
		for _, u := range res.Discarded {
			if u.Dropped {
				sawDrop = true
				if !math.IsInf(u.CompletionTime, 1) {
					t.Fatal("dropped client must never complete")
				}
				if u.Iterations < 1 {
					t.Fatal("dropped client must have burned some compute")
				}
			}
		}
		if math.IsInf(res.End, 1) {
			t.Fatal("round end must be finite")
		}
	}
	if !sawDrop {
		t.Fatal("dropout probability 0.5 over 32 client-rounds produced no drops")
	}
}

func TestDropoutZeroMeansNoDrops(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 4, trace.Config{}, 31)
	r, _ := tb.NewRunner(baseline.FedAvg{})
	for i := 0; i < 3; i++ {
		res := r.RunRound()
		for _, u := range append(res.Collected, res.Discarded...) {
			if u.Dropped {
				t.Fatal("no dropout configured but a client dropped")
			}
		}
	}
}

func TestDropoutDeterministic(t *testing.T) {
	run := func() []bool {
		w := tinyWorkload()
		w.FL.Chaos = dropEngine(t, 0.4, 32)
		tb := expcfg.Build(w, 6, trace.Config{}, 32)
		r, _ := tb.NewRunner(baseline.FedAvg{})
		var drops []bool
		for i := 0; i < 3; i++ {
			res := r.RunRound()
			byID := make(map[int]bool)
			for _, u := range append(res.Collected, res.Discarded...) {
				byID[u.ClientID] = u.Dropped
			}
			for id := 0; id < 6; id++ {
				drops = append(drops, byID[id])
			}
		}
		return drops
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dropout pattern not deterministic at %d", i)
		}
	}
}

func TestTrainingSurvivesDropout(t *testing.T) {
	// The global model must keep improving with flaky clients.
	if testing.Short() {
		t.Skip("training test")
	}
	w := tinyWorkload()
	w.FL.LocalIters, w.TrainN, w.TestN = 12, 512, 256
	w.FL.Chaos = dropEngine(t, 0.3, 33)
	tb := expcfg.Build(w, 6, trace.Config{}, 33)
	r, _ := tb.NewRunner(baseline.FedAvg{})
	first := r.RunRound().Accuracy
	var last float64
	for i := 0; i < 14; i++ {
		last = r.RunRound().Accuracy
	}
	if last < first {
		t.Fatalf("accuracy regressed under dropout: %v -> %v", first, last)
	}
}
