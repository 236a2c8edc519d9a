package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads: the
// direction and regression bound of each metric, which live only there.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Absolute marks a bound in the metric's own unit rather than a share of
	// a's median. BENCHMARK.json has no such key: its bounds are all shares.
	Absolute bool `json:"-"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// spread is the distance between the first and third quartile as a share of
// the median, or NaN with fewer than four runs.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return math.NaN()
	}
	q1, q2, q3 := quartiles(v)
	return math.Abs((q3 - q1) / q2)
}

// verdict compares the runs of one metric on one workload. worse: b's median
// is worse than a's by more than the bound — a share of a's median, or for an
// absolute bound a distance in the metric's unit. unresolved: it is not, but
// the run-to-run spread of either side (in the same terms) is wider than the
// bound, so "unchanged" cannot be claimed — unless every run of b reads better
// than every run of a.
func verdict(a, b []float64, m specMetric) (ratio float64, status string) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	if ma == 0 && mb == 0 {
		ratio = 1 // two zero counts agree
	}
	worseBy, scale := ratio-1, 1.0
	if m.Absolute {
		worseBy, scale = mb-ma, math.Abs(ma)
	}
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > m.Bound {
		return ratio, "worse"
	}
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if m.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	if s := math.Max(spread(a), spread(b)) * scale; s > m.Bound && !allBetter {
		return ratio, "unresolved"
	}
	return ratio, "ok"
}

// compareMain prints one row per (workload, metric) with both medians, the
// ratio with its base, the bound and the verdict; per-layer rows carry no
// bound and no verdict. The seed-bound rows compare like with like only when
// both files ran the same seeds. It exits non-zero when any row is worse.
func compareMain(pathA, pathB string, out io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	values := func(rf resultsFile, workload, metric string) []float64 {
		var v []float64
		for _, r := range rf.Runs {
			if r.Workload != workload {
				continue
			}
			for _, set := range []map[string]metricValue{r.EndToEnd, r.SeedBound, r.PerLayer} {
				if m, ok := set[metric]; ok {
					v = append(v, m.Value)
				}
			}
		}
		return v
	}
	code := 0
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (median of n)\tb (median of n)\tb/a (base a)\tbound\tverdict\n")
	rows := func(w workload, metrics []specMetric, bounded bool) {
		for _, m := range metrics {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, status := verdict(va, vb, m)
			bound := fmt.Sprintf("%s %g%%", m.Better, 100*m.Bound)
			if m.Absolute {
				bound = fmt.Sprintf("%s %g %s", m.Better, m.Bound, m.Unit)
			}
			if !bounded {
				bound, status = "-", "-"
			}
			if status == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%.4f (%.6g)\t%s\t%s\n",
				w.Name, m.Name, median(va), m.Unit, len(va), median(vb), m.Unit, len(vb), ratio, median(va), bound, status)
		}
	}
	for _, w := range workloads {
		rows(w, spec.EndToEnd, true)
		rows(w, seedBoundDefs, true) // meaningful when both files ran the same seeds
		rows(w, spec.PerLayer, false)
	}
	tw.Flush()
	return code
}
