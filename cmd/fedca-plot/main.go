// fedca-plot renders one or more JSON-lines run logs (written by
// fedca-sim -log) as an ASCII time-to-accuracy chart, so scheme comparisons
// can be eyeballed without leaving the terminal.
//
// Usage:
//
//	fedca-sim -scheme fedavg -log avg.jsonl
//	fedca-sim -scheme fedca  -log ca.jsonl
//	fedca-plot avg.jsonl ca.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"fedca/internal/expcfg"
	"fedca/internal/metrics"
	"fedca/internal/report"
	"fedca/internal/runlog"
)

func main() {
	width := flag.Int("width", 72, "chart width in characters")
	height := flag.Int("height", 18, "chart height in characters")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: fedca-plot [-width N] [-height N] <run.jsonl> [more.jsonl ...]")
		os.Exit(2)
	}
	var series []report.PlotSeries
	for _, path := range flag.Args() {
		run, err := runlog.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedca-plot:", err)
			os.Exit(2)
		}
		ts, as := metrics.AccuracyCurve(run.Rounds)
		name := path
		var o expcfg.Options
		if run.Header.Spec != "" && o.Set(run.Header.Spec) == nil {
			clients := o.Clients
			if o.Fleet > 0 {
				clients = o.Fleet
			}
			name = fmt.Sprintf("%s (%s, %d clients)", o.Scheme, o.Model, clients)
		}
		series = append(series, report.PlotSeries{Name: name, Xs: ts, Ys: as})
	}
	fmt.Print(report.Plot("time-to-accuracy (virtual seconds)", series, *width, *height))
}
