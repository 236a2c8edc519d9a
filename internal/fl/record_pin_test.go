package fl_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fedca/internal/chaos"
	"fedca/internal/core"
	"fedca/internal/cputok"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
	"fedca/introspect"
)

var updateRecordPins = flag.Bool("update-record-pins", false, "rewrite testdata/record")

// recordPinRun runs a FedCA federation under every chaos fault class —
// dropout, slowdown, degradation, outage, transfer failure and corruption —
// with a telemetry sink and a journal attached, at a CPU-token cap of
// workers (the runner's worker count).
func recordPinRun(t *testing.T, workers int) (*telemetry.Sink, *telemetry.Journal) {
	t.Helper()
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(workers)
	w := tinyWorkload()
	sink, journal := telemetry.New(), telemetry.NewJournal(1<<14)
	w.FL.Observers = []fl.Observer{sink, journal}
	opt := core.DefaultOptions(w.FL.LocalIters)
	opt.ProfilePeriod = 3
	opt.Tr = 0.9
	ccfg, err := chaos.ParseSpec("drop=0.3,slow=0.4,degrade=0.3,outage=0.2,xfail=0.15,corrupt=0.15")
	if err != nil {
		t.Fatal(err)
	}
	if w.FL.Chaos, err = chaos.NewEngine(ccfg, rng.New(70).Fork("chaos-engine").Uint64()); err != nil {
		t.Fatal(err)
	}
	scheme, err := expcfg.SchemeByName("fedca", &w.FL, opt, 70)
	if err != nil {
		t.Fatal(err)
	}
	r, err := expcfg.Build(w, 8, trace.PaperConfig(), 70).NewRunner(scheme)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r.RunRound()
	}
	return sink, journal
}

// recordPins renders what a run's client-rounds feed: the Chrome trace, the
// /clients JSON, the fedca_* series whose values do not depend on worker
// interleaving, and the journal's multiset of (type, round, client, detail).
//
// Left out of the series: the fedca_runtime_* and fedca_cputok_* process
// gauges, the fedca_stage_seconds wall-clock histograms, which time the
// simulator rather than record the run, and the float sums that workers add
// to in completion order — fedca_iteration_seconds_sum,
// fedca_transfer_seconds_sum and fedca_link_bytes_total — whose last bits
// depend on that order.
func recordPins(t *testing.T, sink *telemetry.Sink, journal *telemetry.Journal) map[string][]byte {
	t.Helper()
	var tr bytes.Buffer
	if err := sink.Tracer().WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	introspect.NewMux(sink, journal, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/clients", nil))

	var prom bytes.Buffer
	if err := sink.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	var series []string
	sc := bufio.NewScanner(&prom)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case !strings.HasPrefix(line, "fedca_"),
			strings.HasPrefix(line, "fedca_runtime_"),
			strings.HasPrefix(line, "fedca_cputok_"),
			strings.HasPrefix(line, "fedca_stage_seconds"),
			strings.HasPrefix(line, "fedca_iteration_seconds_sum"),
			strings.HasPrefix(line, "fedca_transfer_seconds_sum"),
			strings.HasPrefix(line, "fedca_link_bytes_total"):
			continue
		}
		series = append(series, line)
	}

	var events []string
	for _, e := range journal.Since(0) {
		events = append(events, fmt.Sprintf("%s\t%d\t%d\t%s", e.Type, e.Round, e.Client, e.Detail))
	}
	slices.Sort(events)
	return map[string][]byte{
		"trace.json":   tr.Bytes(),
		"clients.json": rec.Body.Bytes(),
		"metrics.prom": []byte(strings.Join(series, "\n") + "\n"),
		"journal.txt":  []byte(strings.Join(events, "\n") + "\n"),
	}
}

// TestClientRoundRecordPinned pins everything a run's client-rounds are
// recorded into — trace, /clients, the interleaving-free fedca_* series and
// the journal's events — at 1 and at 4 workers, against one set of files.
// The run covers eager sends, retransmissions, an anchor abort and a
// quarantine. Rewrite with -update-record-pins only for a deliberate change.
func TestClientRoundRecordPinned(t *testing.T) {
	dir := filepath.Join("testdata", "record")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sink, journal := recordPinRun(t, workers)
			for name, v := range map[string]float64{
				"eager sends":     sink.EagerTx.Value(),
				"retransmissions": sink.Retransmits.Value(),
				"anchor aborts":   sink.AnchorAborts.Value(),
				"quarantines":     sink.Quarantined.Value(),
				"dropouts":        sink.Dropouts.Value(),
			} {
				if v == 0 {
					t.Errorf("the pinned run has no %s", name)
				}
			}
			for name, got := range recordPins(t, sink, journal) {
				path := filepath.Join(dir, name)
				if *updateRecordPins && workers == 1 {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s moved (%d bytes, pinned %d)", name, len(got), len(want))
				}
			}
		})
	}
}
