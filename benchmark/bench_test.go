package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own child process, so the smoke
// test takes the same re-exec path as the command.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at a tiny size (3 clients or a cohort of 10,
// K=2, 2 measured rounds) through the code path of a real run and checks the
// output schema against BENCHMARK.json: every metric it names is printed
// exactly once per workload, with its unit, and is in the result line.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, workloads are sized for %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
	}
	checkDefs := func(kind string, defs []metricDef, want []specMetric) {
		if len(defs) != len(want) {
			t.Fatalf("%s: benchmark has %d metrics, BENCHMARK.json %d", kind, len(defs), len(want))
		}
		for i, d := range defs {
			if d.Name != want[i].Name || d.Unit != want[i].Unit {
				t.Errorf("%s metric %d: benchmark has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.Name, d.Unit, want[i].Name, want[i].Unit)
			}
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, d.Name)
			}
		}
	}
	checkDefs("end_to_end", endToEndDefs, spec.EndToEnd)
	checkDefs("per_layer", perLayerDefs, spec.PerLayer)

	cfg := runConfig{seed: 42, seconds: 1, trace: -1, tiny: true, probeCalls: 2}
	shared := runSharedProbes(cfg)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := cfg
			cfg.outDir = t.TempDir()
			var out bytes.Buffer
			rec := runWorkload(w, cfg, shared, &out)

			// At this size the accuracy gates cannot pass; every other gate must.
			for _, miss := range rec.GateMisses {
				if !strings.HasPrefix(miss, "wall_to_target_s") && !strings.HasPrefix(miss, "final_accuracy") {
					t.Errorf("gate miss: %s", miss)
				}
			}
			if want := 2 * (1 + w.rounds(cfg.seconds)); rec.RoundsAttempted != want {
				t.Errorf("rounds_attempted = %d, want %d", rec.RoundsAttempted, want)
			}
			if rec.NProc < 1 || rec.GOMAXPROCS < 1 || rec.GoVersion == "" || rec.Commit == "" || rec.Seed != 42 {
				t.Errorf("run record lacks its environment: %+v", rec)
			}

			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 3 {
					printed[f[0]]++
				}
			}
			for trace, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
				b, err := json.Marshal(rec.resultLine(trace))
				if err != nil {
					t.Fatal(err)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal(b, &line); err != nil {
					t.Fatal(err)
				}
				if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
					t.Fatalf("result line keys: %s", b)
				}
				var metrics map[string]metricValue
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(defs) {
					t.Errorf("-trace %d result line has %d metrics, want %d", trace, len(metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
						t.Errorf("-trace %d: metric %s [%s] missing or wrong: %+v", trace, d.Name, d.Unit, m)
					}
					if printed[d.Name] != 1 {
						t.Errorf("metric %s printed %d times", d.Name, printed[d.Name])
					}
				}
			}

			for _, d := range seedBoundDefs {
				if m, ok := rec.SeedBound[d.Name]; !ok || m.Unit != d.Unit || printed[d.Name] != 1 {
					t.Errorf("seed-bound metric %s: %+v, printed %d times", d.Name, m, printed[d.Name])
				}
			}

			b, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []struct {
					Name string `json:"name"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tr); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for _, e := range tr.TraceEvents {
				names[e.Name] = true
			}
			for _, want := range []string{"fedca.New", "fedca.RunRound", "probe:nn.iteration", "probe:tensor.gemm_f32"} {
				if !names[want] {
					t.Errorf("trace file has no %q span", want)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestTimeToTargetInterpolates(t *testing.T) {
	rounds := []roundRec{{Accuracy: 0.2}, {Accuracy: 0.4}, {Accuracy: 0.8}}
	pos, ok := crossing(rounds, 0.5)
	if !ok || math.Abs(pos-2.25) > 1e-12 {
		t.Fatalf("crossing = %v %v, want 2.25", pos, ok)
	}
	if got := at([]float64{10, 20, 40}, pos); math.Abs(got-25) > 1e-12 {
		t.Errorf("time at crossing = %v, want 25", got)
	}
	if pos, ok := crossing(rounds, 0.1); !ok || math.Abs(pos-0.5) > 1e-12 {
		t.Errorf("crossing inside round 0 = %v %v, want 0.5", pos, ok)
	}
	if _, ok := crossing(rounds, 0.9); ok {
		t.Error("crossing reported a target that was never reached")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Better: "lower", Bound: 0.1}
	accuracy := specMetric{Better: "higher", Bound: 0.02, Absolute: true}
	for _, c := range []struct {
		a, b []float64
		m    specMetric
		want string
	}{
		{[]float64{10}, []float64{10.5}, lower, "ok"},
		{[]float64{10}, []float64{11.5}, lower, "worse"},
		{[]float64{10}, []float64{8.5}, specMetric{Better: "higher", Bound: 0.1}, "worse"},
		{[]float64{8, 9, 10, 11, 12}, []float64{8, 9, 10, 11, 12}, lower, "unresolved"},
		{[]float64{8, 9, 10, 11, 12}, []float64{3, 4, 5, 6, 7}, lower, "ok"},
		// An absolute bound is a distance, not a share: 0.003 off 0.12 is
		// 2.5% but passes, 0.021 off 0.9 fails.
		{[]float64{0.12}, []float64{0.117}, accuracy, "ok"},
		{[]float64{0.9}, []float64{0.881}, accuracy, "ok"},
		{[]float64{0.9}, []float64{0.879}, accuracy, "worse"},
		{[]float64{0.5, 0.52, 0.54, 0.56, 0.58}, []float64{0.5, 0.52, 0.54, 0.56, 0.58}, accuracy, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v, %v, %+v) = %s, want %s", c.a, c.b, c.m, got, c.want)
		}
	}
}
