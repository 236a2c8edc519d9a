// fedca-bench regenerates the FedCA paper's evaluation artifacts (Table 1,
// Figs. 2–5, 7–10, Sec. 5.5 overheads) on the simulated testbed.
//
// Usage:
//
//	fedca-bench -exp table1            # one experiment at the default scale
//	fedca-bench -exp all -scale tiny   # everything, smallest instance
//	fedca-bench -exp fig7 -scale full -seed 7 -series
//	fedca-bench -exp all -cache ~/.cache/fedca-cells   # warm across runs
//	fedca-bench -exp fig7 -scale tiny -dtype f32       # float32 client compute
//	fedca-bench -list -scale tiny                      # each experiment's cells
//
// Scales: tiny (minutes), small (default), full (paper-sized: 128 clients,
// K = 125 — expect hours of CPU).
//
// Experiments execute through the cell executor (DESIGN.md §10): the
// training runs behind each figure are deduplicated across figures, computed
// in parallel up to -parallel concurrent cells, and — with -cache — reused
// across invocations from a content-addressed on-disk result cache.
//
// Stdout carries only the artifacts, so a run is reproducible byte for byte;
// each experiment's wall time and the executor's counters go to stderr.
// testdata/experiments-tiny-seed42.txt is the stdout of
//
//	go run ./cmd/fedca-bench -exp all -scale tiny -seed 42
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"fedca/internal/execpool"
	"fedca/internal/experiments"
	"fedca/internal/report"
	"fedca/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig2..fig10b, table1, ovh) or 'all'")
	scaleName := flag.String("scale", "small", "experiment scale: tiny | small | full")
	seed := flag.Uint64("seed", 42, "master seed")
	series := flag.Bool("series", false, "also print full data series for plotting")
	list := flag.Bool("list", false, "list each experiment's cells at -scale, -seed and -dtype (each its run's spec string, which fedca-sim -spec replays, and its rounds) and exit")
	parallel := flag.Int("parallel", experiments.DefaultWorkers(), "max concurrently computing experiment cells (1 = serial)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty disables)")
	dtype := flag.String("dtype", "f64", "client training precision: f64 (bit-reproducible default) | f32 (float32 workers; master weights and aggregation stay float64)")
	metricsOut := flag.String("metrics-out", "", "write a telemetry JSON snapshot (executor counters included) to this file on exit")
	flag.Parse()

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := scale.Base.Set("dtype=" + *dtype); err != nil {
		fmt.Fprintln(os.Stderr, "fedca-bench: -dtype:", err)
		os.Exit(2)
	}
	if *list {
		listCells(scale, *seed)
		return
	}

	reg := telemetry.NewRegistry()
	experiments.Configure(execpool.Options{
		Workers:  *parallel,
		CacheDir: *cacheDir,
		Metrics:  reg,
	})

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "%s: %s\n", id, time.Since(start).Round(time.Millisecond))
		fmt.Printf("=== %s (scale=%s seed=%d) ===\n", id, scale.Name, *seed)
		fmt.Println(res.Text)
		if *series {
			names := make([]string, 0, len(res.Series))
			for n := range res.Series {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				ys := res.Series[n]
				xs := make([]float64, len(ys))
				for i := range xs {
					xs[i] = float64(i + 1)
				}
				fmt.Print(report.Series(id+"/"+n, xs, ys, 0))
			}
		}
	}

	st := experiments.ExecStats()
	fmt.Fprintf(os.Stderr, "executor: %d cells computed, %d memory hits, %d disk hits, %d dedup waits\n",
		st.Computed, st.MemHits, st.DiskHits, st.DedupWaits)
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := reg.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
}

// listCells prints every experiment's cells at (scale, seed) and the number
// of distinct cells the whole suite trains, which is what -exp all computes
// on a cold cache.
func listCells(scale experiments.Scale, seed uint64) {
	distinct := make(map[string]bool)
	for _, id := range experiments.IDs() {
		cells, err := experiments.Cells(id, scale, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("%s (%d cells)\n", id, len(cells))
		for _, c := range cells {
			fmt.Printf("  %s\n", c)
			distinct[c] = true
		}
	}
	fmt.Printf("%d distinct cells (scale=%s seed=%d)\n", len(distinct), scale.Name, seed)
}
