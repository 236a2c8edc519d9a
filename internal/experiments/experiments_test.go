package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fedca/internal/fl"
)

// micro is an even smaller scale than tinyScale, for unit tests: seconds.
func micro() Scale {
	return scale("tiny", 10, 1, 4, 2,
		"geometry=tiny;clients=4;iters=10;train=384;test=128;batch=12;hetero=true;dynamic=true;fedca.profileperiod=3")
}

func mustRun(t *testing.T, id string, s Scale, seed uint64) *Result {
	t.Helper()
	res, err := Run(id, s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustConv(t *testing.T, s Scale, seed uint64, c cellSpec) convRun {
	t.Helper()
	in := &inputs{s: s, seed: seed}
	run := in.run(c)
	if in.err != nil {
		t.Fatal(in.err)
	}
	return run
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"tiny", "small", "full"} {
		s, err := ScaleByName(n)
		if err != nil || s.Name != n {
			t.Fatalf("ScaleByName(%q) = %+v, %v", n, s, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFullMatchesPaperSetup(t *testing.T) {
	f := fullScale().Base
	if f.Clients != 128 || f.LocalIters != 125 || f.FedCA.ProfilePeriod != 10 || f.Geometry != "" {
		t.Fatalf("full scale deviates from the paper: %v", f)
	}
}

// TestWorkloadScaling: a cell's workload is the scale's Base lowered, and
// an unknown model is an error.
func TestWorkloadScaling(t *testing.T) {
	s := tinyScale()
	in := &inputs{s: s, seed: 1}
	for _, m := range []string{"cnn", "lstm", "wrn"} {
		w, err := in.workload(m)
		if err != nil {
			t.Fatal(err)
		}
		if w.FL.LocalIters != s.Base.LocalIters || w.TrainN != s.Base.TrainSamples || w.FL.BatchSize != s.Base.BatchSize {
			t.Fatalf("%s not scaled: %+v", m, w.FL)
		}
	}
	if _, err := in.workload("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every data-bearing artifact of the paper must have a generator.
	want := []string{
		"abl-deadline", "abl-floor", "abl-period", "abl-sampling",
		"ext-compress", "ext-hp", "ext-selection",
		"fig10a", "fig10b", "fig2", "fig3", "fig4", "fig5", "fig7",
		"fig8a", "fig8b", "fig9", "ovh", "table1",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(ids), len(want), ids)
	}
	for i, w := range want {
		if ids[i] != w {
			t.Fatalf("ids = %v", ids)
		}
	}
	if _, err := Run("nope", tinyScale(), 1); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestOverheadAccounting(t *testing.T) {
	res := mustRun(t, "ovh", tinyScale(), 1)
	for _, m := range curveModels {
		samples := res.Values["samples/"+m]
		params := res.Values["params/"+m]
		if samples <= 0 || params <= 0 {
			t.Fatalf("%s: missing values", m)
		}
		if samples > params {
			t.Fatalf("%s: sampled %v > params %v", m, samples, params)
		}
		// Sampling must be a small fraction of the model for big models.
		if params > 10000 && samples/params > 0.5 {
			t.Fatalf("%s: sampling fraction too large: %v", m, samples/params)
		}
		if res.Values["membytes/"+m] != samples*float64(tinyScale().Base.LocalIters)*8 {
			t.Fatalf("%s: memory accounting wrong", m)
		}
	}
	if !strings.Contains(res.Text, "overhead") {
		t.Fatal("text missing")
	}
}

func TestCurveProbeExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	seed := uint64(5)

	fig2 := mustRun(t, "fig2", s, seed)
	// 3 models × 2 stages × 2 clients = 12 series.
	if len(fig2.Series) != 12 {
		t.Fatalf("fig2 has %d series", len(fig2.Series))
	}
	for name, curve := range fig2.Series {
		if len(curve) != s.Base.LocalIters {
			t.Fatalf("%s: curve length %d, want K=%d", name, len(curve), s.Base.LocalIters)
		}
		if math.Abs(curve[len(curve)-1]-1) > 1e-9 {
			t.Fatalf("%s: P_K = %v, want 1", name, curve[len(curve)-1])
		}
		for _, p := range curve {
			if p > 1+1e-9 {
				t.Fatalf("%s: P > 1", name)
			}
		}
	}
	// Diminishing marginal benefit: P@20% should beat the uniform line. At
	// the micro scale (K = 10) gradient noise can pull a model onto the
	// line, so the assertion allows tolerance; the tiny-scale benchmarks
	// (K = 25) show 0.5+ with margin.
	for _, m := range curveModels {
		if fig2.Values["p20/"+m] <= 0.15 {
			t.Fatalf("%s: P@20%% = %v far below uniform", m, fig2.Values["p20/"+m])
		}
	}

	fig3 := mustRun(t, "fig3", s, seed)
	// Layer heterogeneity: the most divergent pair must differ visibly.
	for _, m := range curveModels {
		if fig3.Values["gap/"+m+"/early"] <= 0.01 {
			t.Fatalf("%s: layers are indistinguishable (gap %v)", m, fig3.Values["gap/"+m+"/early"])
		}
	}
	// Every CNN layer's curve is in the series at each probed (round,
	// client), not only the most divergent pair the text shows; fig5 adds
	// each one's sampled curve.
	fig5 := mustRun(t, "fig5", s, seed)
	in := &inputs{s: s, seed: seed}
	cd := in.run(curves("cnn")).Curves
	if in.err != nil {
		t.Fatal(in.err)
	}
	for _, st := range stages(s) {
		for _, client := range probedClients {
			pc := cd.Probe(st.round, client)
			for l, layer := range cd.LayerNames {
				name := fmt.Sprintf("cnn-%s-client%d-%s", st.name, client, layer)
				if !slices.Equal(fig3.Series[name], pc.Layer[l]) {
					t.Errorf("fig3 series %s missing or wrong", name)
				}
				if !slices.Equal(fig5.Series[name+"-sampled"], pc.Sampled[l]) {
					t.Errorf("fig5 series %s-sampled missing or wrong", name)
				}
			}
		}
	}

	fig4 := mustRun(t, "fig4", s, seed)
	// Consecutive-round similarity: curves must be far more alike than they
	// are long (RMSE well under the 0–1 range).
	for _, m := range curveModels {
		for _, stage := range []string{"early", "late"} {
			rmse := fig4.Values["maxRMSE/"+m+"/"+stage]
			if math.IsNaN(rmse) || rmse > 0.35 {
				t.Fatalf("%s/%s: consecutive rounds dissimilar (RMSE %v)", m, stage, rmse)
			}
		}
	}

	// Sampled profiling must track the full curve closely.
	for _, m := range curveModels {
		for _, stage := range []string{"early", "late"} {
			d := fig5.Values["maxdiff/"+m+"/"+stage]
			if math.IsNaN(d) || d > 0.3 {
				t.Fatalf("%s/%s: sampled curve deviates %v", m, stage, d)
			}
		}
	}
}

func TestConvergenceExperimentsCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	seed := uint64(6)
	// Run only the CNN subset through the full pipeline by invoking the
	// underlying runs directly.
	avg := mustConv(t, s, seed, conv("cnn", "fedavg"))
	ca := mustConv(t, s, seed, conv("cnn", "fedca"))
	if len(avg.Results) != s.Rounds || len(ca.Results) != s.Rounds {
		t.Fatal("wrong round counts")
	}
	if ca.Stats == nil {
		t.Fatal("fedca run must expose the scheme stats")
	}
	if avg.Stats != nil {
		t.Fatal("fedavg run must not expose FedCA stats")
	}
	// The runner's recycle stage drops every update's delta, so a cell holds
	// no per-update parameter vectors in memory or in the disk cache.
	for name, run := range map[string]convRun{"fedavg": avg, "fedca": ca} {
		for _, r := range run.Results {
			for _, u := range append(append([]fl.Update(nil), r.Collected...), r.Discarded...) {
				if u.Delta != nil {
					t.Fatalf("%s round %d: client %d kept its delta", name, r.Index, u.ClientID)
				}
			}
		}
	}
	// FedCA must not be slower overall than FedAvg on the same seed.
	avgEnd := avg.Results[len(avg.Results)-1].End
	caEnd := ca.Results[len(ca.Results)-1].End
	if caEnd > avgEnd {
		t.Fatalf("FedCA total %v exceeds FedAvg %v", caEnd, avgEnd)
	}
	// Caching: the same call must return the identical result object content.
	again := mustConv(t, s, seed, conv("cnn", "fedavg"))
	if len(again.Results) != len(avg.Results) || again.Results[0].End != avg.Results[0].End {
		t.Fatal("cache returned a different run")
	}
}

func TestFig8Behavior(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	seed := uint64(7)
	a := mustRun(t, "fig8a", s, seed)
	for _, scheme := range []string{"fedca", "fedada"} {
		ps := a.Series[scheme+"-p"]
		if len(ps) == 0 {
			t.Fatalf("fig8a missing %s CDF", scheme)
		}
		if math.Abs(ps[len(ps)-1]-1) > 1e-9 {
			t.Fatalf("%s CDF must end at 1", scheme)
		}
	}
	b := mustRun(t, "fig8b", s, seed)
	if len(b.Series["without-retrans-p"]) == 0 {
		t.Fatal("fig8b missing series")
	}
}

func TestProbeSampledCurvesPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	in := &inputs{s: s, seed: 8}
	cd := in.run(curves("cnn")).Curves
	if in.err != nil {
		t.Fatal(in.err)
	}
	pc := cd.Probe(s.EarlyRound, 0)
	if pc == nil || len(pc.Sampled) != len(pc.Layer) {
		t.Fatal("sampled curves missing")
	}
	if cd.Probe(999, 0) != nil {
		t.Fatal("untargeted probe must be nil")
	}
	if len(cd.LayerNames) != len(cd.LayerSizes) {
		t.Fatal("layer metadata inconsistent")
	}
}

func TestMostDivergentPair(t *testing.T) {
	curves := [][]float64{
		{0.1, 0.2, 0.3},
		{0.1, 0.2, 0.31},
		{0.9, 0.95, 1.0},
	}
	a, b, gap := mostDivergentPair(curves)
	if !((a == 0 && b == 2) || (a == 1 && b == 2)) {
		t.Fatalf("pair = %d,%d", a, b)
	}
	if gap < 0.5 {
		t.Fatalf("gap = %v", gap)
	}
}

func TestAt20(t *testing.T) {
	curve := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1, 1, 1, 1}
	if at20(curve) != 0.6 {
		t.Fatalf("at20 = %v", at20(curve))
	}
	if at20([]float64{0.3}) != 0.3 {
		t.Fatal("at20 short curve")
	}
}
