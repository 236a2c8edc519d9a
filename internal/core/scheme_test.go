package core_test

import (
	"math"
	"slices"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

func tinyWorkload() expcfg.Workload {
	w := expcfg.CNN()
	w.Img.Height, w.Img.Width = 8, 8
	w.Img.Classes = 4
	w.FL.BaseIterTime = 0.1
	w.FL.ModelBytes = 0
	w.FL.LocalIters, w.FL.BatchSize = 10, 16
	w.TrainN, w.TestN = 256, 128
	return w
}

func fedcaOpts(k int) core.Options {
	o := core.DefaultOptions(k)
	o.ProfilePeriod = 3
	return o
}

func TestOptionsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=0")
		}
	}()
	core.NewScheme(core.Options{}, rng.New(1))
}

func TestVariantNames(t *testing.T) {
	if n := core.NewScheme(core.DefaultOptions(10), rng.New(1)).Name(); n != "fedca" {
		t.Fatalf("v3 name = %q", n)
	}
	o := core.DefaultOptions(10)
	o.Retransmit = false
	if n := core.NewScheme(o, rng.New(1)).Name(); n != "fedca-v2" {
		t.Fatalf("v2 name = %q", n)
	}
	o.Eager = false
	if n := core.NewScheme(o, rng.New(1)).Name(); n != "fedca-v1" {
		t.Fatalf("v1 name = %q", n)
	}
}

func TestAnchorSchedule(t *testing.T) {
	s := core.NewScheme(fedcaOpts(10), rng.New(2))
	for _, c := range []struct {
		round  int
		anchor bool
	}{{0, true}, {1, false}, {2, false}, {3, true}, {6, true}, {7, false}} {
		if got := s.IsAnchorRound(c.round); got != c.anchor {
			t.Fatalf("round %d anchor = %v, want %v", c.round, got, c.anchor)
		}
	}
}

func TestAnchorRoundRunsFullAndProfiles(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 4, trace.Config{}, 3)
	s := core.NewScheme(fedcaOpts(w.FL.LocalIters), rng.New(4))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	res := r.RunRound() // round 0 = anchor
	for _, u := range res.Collected {
		if u.Iterations != w.FL.LocalIters {
			t.Fatalf("anchor round client ran %d iterations, want full %d", u.Iterations, w.FL.LocalIters)
		}
		if u.EagerSent != 0 {
			t.Fatal("anchor round must not transmit eagerly")
		}
	}
	for _, c := range tb.Clients {
		curves := s.Profiler(c.ID).Curves()
		if curves == nil {
			t.Fatalf("client %d has no curves after anchor", c.ID)
		}
		if k := len(curves.Model); k != w.FL.LocalIters {
			t.Fatalf("curve K = %d", k)
		}
		if math.Abs(curves.Model[w.FL.LocalIters-1]-1) > 1e-12 {
			t.Fatal("curve must end at 1")
		}
		if len(curves.Layer) == 0 {
			t.Fatal("no per-layer curves")
		}
	}
	stats := r.Stats()
	if stats.AnchorRounds != 4 {
		t.Fatalf("anchor client-rounds = %d, want 4", stats.AnchorRounds)
	}
}

func TestCurvesShowDiminishingMarginalBenefit(t *testing.T) {
	// The Sec. 3 observation on real SGD: early iterations contribute more.
	w := tinyWorkload()
	w.FL.LocalIters = 20
	tb := expcfg.Build(w, 2, trace.Config{}, 5)
	s := core.NewScheme(fedcaOpts(20), rng.New(6))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound()
	curves := s.Profiler(0).Curves()
	k := len(curves.Model)
	firstHalf := curves.Model[k/2-1]         // P at τ=K/2
	if firstHalf < float64(k/2)/float64(k) { // must beat the uniform line
		t.Fatalf("P_{K/2} = %v does not beat uniform %v: no diminishing returns", firstHalf, 0.5)
	}
}

func TestEarlyStopAfterProfiling(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 6, trace.Config{HeterogeneitySigma: 0.8}, 7)
	opts := fedcaOpts(w.FL.LocalIters)
	opts.Eager, opts.Retransmit = false, false // isolate early stop
	s := core.NewScheme(opts, rng.New(8))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	var sawEarlyStop bool
	for i := 0; i < 6; i++ {
		res := r.RunRound()
		for _, u := range append(res.Collected, res.Discarded...) {
			if u.Iterations < w.FL.LocalIters {
				sawEarlyStop = true
			}
		}
	}
	if !sawEarlyStop {
		t.Fatal("no client ever stopped early under FedCA-v1 with heterogeneity")
	}
	stats := r.Stats()
	if stats.EarlyStops == 0 {
		t.Fatal("stats recorded no early stops")
	}
	if n := len(stats.EarlyStopsByIter); n != w.FL.LocalIters+1 || stats.EarlyStopsByIter[0] != 0 {
		t.Fatalf("early stops by iteration %v: want iterations 1 to %d", stats.EarlyStopsByIter, w.FL.LocalIters)
	}
	sum := 0
	for _, n := range stats.EarlyStopsByIter {
		sum += n
	}
	if sum != stats.EarlyStops {
		t.Fatalf("early stops by iteration sum to %d, total %d", sum, stats.EarlyStops)
	}
}

func TestEagerTransmissionFires(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 4, trace.Config{}, 9)
	opts := fedcaOpts(w.FL.LocalIters)
	opts.EarlyStop = false // isolate eager path
	opts.Te = 0.5          // low threshold so layers certainly cross
	s := core.NewScheme(opts, rng.New(10))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound() // anchor
	res := r.RunRound()
	totalEager := 0
	for _, u := range res.Collected {
		totalEager += u.EagerSent
	}
	if totalEager == 0 {
		t.Fatal("no eager transmissions despite low threshold")
	}
}

func TestRetransmissionTriggersOnDeviation(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 4, trace.Config{}, 11)
	opts := fedcaOpts(w.FL.LocalIters)
	opts.EarlyStop = false
	opts.Te = 0.2 // absurdly eager: snapshots from iteration ~1 will deviate
	opts.Tr = 0.999
	s := core.NewScheme(opts, rng.New(12))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound()
	res := r.RunRound()
	totalRetr := 0
	for _, u := range res.Collected {
		totalRetr += u.Retransmitted
	}
	if totalRetr == 0 {
		t.Fatal("T_r ≈ 1 with very eager sending must force retransmissions")
	}
}

func TestV1NeverTransmitsEagerly(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 4, trace.Config{}, 13)
	opts := core.DefaultOptions(w.FL.LocalIters)
	opts.Eager, opts.Retransmit = false, false
	opts.ProfilePeriod = 3
	s := core.NewScheme(opts, rng.New(14))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res := r.RunRound()
		for _, u := range res.Collected {
			if u.EagerSent != 0 {
				t.Fatal("v1 must not eager-transmit")
			}
		}
	}
}

func TestV2NeverRetransmits(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 4, trace.Config{}, 15)
	opts := core.DefaultOptions(w.FL.LocalIters)
	opts.Retransmit = false
	opts.ProfilePeriod = 3
	opts.Te = 0.3
	s := core.NewScheme(opts, rng.New(16))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res := r.RunRound()
		for _, u := range res.Collected {
			if u.Retransmitted != 0 {
				t.Fatal("v2 must not retransmit")
			}
		}
	}
}

func TestFedCADeterministic(t *testing.T) {
	run := func() []fl.RoundRecord {
		w := tinyWorkload()
		tb := expcfg.Build(w, 4, trace.PaperConfig(), 17)
		s := core.NewScheme(fedcaOpts(w.FL.LocalIters), rng.New(18))
		r, err := tb.NewRunner(s)
		if err != nil {
			t.Fatal(err)
		}
		return roundRecords(r, 4)
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("FedCA not deterministic:\n%+v\n%+v", a, b)
	}
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

func TestFedCAShorterRoundsThanFedAvg(t *testing.T) {
	// Under heterogeneity + dynamicity, FedCA's mean round time after
	// profiling must undercut FedAvg's (the paper's headline mechanism).
	w := tinyWorkload()
	tcfg := trace.PaperConfig()
	run := func(s fl.Scheme) float64 {
		tb := expcfg.Build(w, 8, tcfg, 19)
		r, err := tb.NewRunner(s)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		n := 0
		for i := 0; i < 6; i++ {
			res := r.RunRound()
			if i >= 1 { // skip the anchor round
				total += res.Duration()
				n++
			}
		}
		return total / float64(n)
	}
	fedavg := run(baseline.FedAvg{})
	fedca := run(core.NewScheme(fedcaOpts(w.FL.LocalIters), rng.New(20)))
	if fedca >= fedavg {
		t.Fatalf("FedCA mean round %v not shorter than FedAvg %v", fedca, fedavg)
	}
}

func TestPlanRoundDeadlineFromHistory(t *testing.T) {
	s := core.NewScheme(fedcaOpts(10), rng.New(21))
	h := fl.NewHistory()
	plan := s.PlanRound(1, h)
	if !math.IsInf(plan.Deadline, 1) {
		t.Fatalf("no-history deadline = %v, want +Inf", plan.Deadline)
	}
	h.Observe(fl.Update{ClientID: 0, Iterations: 10, TrainTime: 10})
	h.Observe(fl.Update{ClientID: 1, Iterations: 10, TrainTime: 20})
	plan = s.PlanRound(2, h)
	if math.IsInf(plan.Deadline, 1) || plan.Deadline <= 0 {
		t.Fatalf("deadline = %v", plan.Deadline)
	}
}

func TestAdaptiveLRSignalsDecayOnce(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 2, trace.Config{}, 60)
	opts := fedcaOpts(w.FL.LocalIters)
	opts.EarlyStop, opts.Eager, opts.Retransmit = false, false, false
	opts.AdaptiveLR = true
	s := core.NewScheme(opts, rng.New(61))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound() // anchor
	// Wrap a probe: run one client round manually and count LRScale signals.
	ctrl := s.NewController(tb.Clients[0], 1, s.PlanRound(1, r.Hist))
	decays := 0
	k := w.FL.LocalIters
	curves := s.Profiler(0).Curves()
	if curves == nil {
		t.Fatal("no curves after anchor")
	}
	for iter := 1; iter <= k; iter++ {
		action := ctrl.AfterIteration(fl.IterState{Iter: iter, K: k, Budget: k, Delta: make([]float64, 10), Ranges: nil})
		if action.LRScale > 0 {
			decays++
			if action.LRScale != 0.5 {
				t.Fatalf("LRScale = %v", action.LRScale)
			}
		}
	}
	if decays != 1 {
		t.Fatalf("decay signalled %d times, want exactly 1", decays)
	}
}

func TestQuantileDeadlineOption(t *testing.T) {
	opts := fedcaOpts(10)
	opts.DeadlineQuantile = 0.5
	s := core.NewScheme(opts, rng.New(62))
	h := fl.NewHistory()
	for id, tt := range []float64{10, 20, 30, 40} {
		h.Observe(fl.Update{ClientID: id, Iterations: 10, TrainTime: tt})
	}
	plan := s.PlanRound(1, h)
	// Per-iteration estimates {1,2,3,4} × K=10 → round times {10,20,30,40};
	// the 0.5-quantile by our rule is the 2nd of 4 → 20.
	if plan.Deadline != 20 {
		t.Fatalf("quantile deadline = %v, want 20", plan.Deadline)
	}
}

func TestFedCASurvivesDropout(t *testing.T) {
	// Clients dropping mid-round (including during anchor rounds, where the
	// profiler is recording) must not wedge FedCA: stale curves stay in use
	// and the next anchor re-arms recording cleanly.
	w := tinyWorkload()
	w.FL.Chaos = dropEngine(t, 0.4, 70)
	tb := expcfg.Build(w, 6, trace.PaperConfig(), 70)
	s := core.NewScheme(fedcaOpts(w.FL.LocalIters), rng.New(71))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for i := 0; i < 7; i++ { // crosses two anchor rounds (period 3)
		res := r.RunRound()
		for _, u := range res.Discarded {
			if u.Dropped {
				drops++
			}
		}
	}
	if drops == 0 {
		t.Fatal("expected some dropouts at p=0.4")
	}
	// At least one client must still have valid curves.
	curvesSeen := false
	for id := 0; id < 6; id++ {
		if s.Profiler(id).Curves() != nil {
			curvesSeen = true
		}
	}
	if !curvesSeen {
		t.Fatal("no client retained curves despite anchors")
	}
}

func TestLayerAtBounds(t *testing.T) {
	c := &core.Curves{Layer: [][]float64{{0.4, 1.0}}}
	if c.LayerAt(0, 0) != 0 {
		t.Fatal("P_0 must be 0")
	}
	if c.LayerAt(0, 1) != 0.4 || c.LayerAt(0, 2) != 1.0 {
		t.Fatal("LayerAt wrong")
	}
	if c.LayerAt(0, 99) != 1.0 {
		t.Fatal("LayerAt must clamp")
	}
}

func TestFedCAWithCompression(t *testing.T) {
	// FedCA's eager/retransmission machinery must compose with upload
	// compression (orthogonality claim of Sec. 2.2/6).
	w := tinyWorkload()
	w.FL.Compressor = compress.QSGD{Levels: 7}
	tb := expcfg.Build(w, 4, trace.Config{}, 72)
	opts := fedcaOpts(w.FL.LocalIters)
	opts.Te = 0.5
	s := core.NewScheme(opts, rng.New(73))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRound() // anchor
	res := r.RunRound()
	eager := 0
	for _, u := range res.Collected {
		eager += u.EagerSent
	}
	if eager == 0 {
		t.Fatal("no eager transmissions under compression")
	}
}
