package fedca_test

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedca"
	"fedca/internal/telemetry"
	"fedca/introspect"
)

// TestFacadeTelemetry exercises the public observability surface: a sink
// attached through Options, the federation snapshot, and the introspection
// handler a library user mounts over them with introspect.NewMux.
func TestFacadeTelemetry(t *testing.T) {
	opts := fedca.DefaultOptions()
	opts.Clients = 4
	opts.LocalIters = 6
	opts.BatchSize = 8
	opts.TrainSamples = 256
	opts.TestSamples = 64
	tel := fedca.NewTelemetry()
	opts.Telemetry = tel
	f, err := fedca.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rounds := f.Run(2)

	if got := tel.Rounds.Value(); got != 2 {
		t.Fatalf("sink rounds = %v, want 2", got)
	}
	if tel.Tracer().Len() == 0 {
		t.Fatal("sink recorded no spans")
	}

	snap := f.Snapshot()
	if snap.Round != 2 {
		t.Fatalf("snapshot round = %d, want 2", snap.Round)
	}
	last := rounds[len(rounds)-1]
	if snap.VirtualTime != last.End || snap.Accuracy != last.Accuracy {
		t.Fatalf("snapshot %+v does not match last round %+v", snap, last)
	}
	if st, _ := f.FedCAStats(); !reflect.DeepEqual(snap.Stats, st) || st.AnchorRounds == 0 {
		t.Fatalf("snapshot stats %+v, want the run's tally %+v", snap.Stats, st)
	}

	srv := httptest.NewServer(introspect.NewMux(tel, f.Journal(), func() any { return f.Snapshot() }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		body.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(body.String(), "fedca_rounds_total 2") {
		t.Fatalf("GET /metrics = %d:\n%s", resp.StatusCode, body.String())
	}

	resp, err = srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var got fedca.Snapshot
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("/status is not a JSON snapshot: %v", err)
	}
	resp.Body.Close()
	if got.Round != snap.Round || got.Accuracy != snap.Accuracy || len(got.Stages) != len(snap.Stages) {
		t.Fatalf("/status %+v does not match Snapshot() %+v", got, snap)
	}
}

// TestSharedSinkSumsFederations: a sink outlives its runners — every soak
// phase shares one — so each of its counters must be the sum of the tallies
// of the federations that fed it, not a copy of the last one's. The chaos
// case drops anchor client-rounds, which count as anchors and aborts only.
func TestSharedSinkSumsFederations(t *testing.T) {
	for _, chaos := range []string{"none", "drop=0.5"} {
		t.Run(chaos, func(t *testing.T) {
			tel := fedca.NewTelemetry()
			names := []string{"rounds", "skipped", "quarantined", "dropouts", "early stops",
				"full rounds", "eager sends", "retransmits", "anchors", "anchor aborts"}
			want := make([]float64, len(names))
			for _, seed := range []uint64{1, 2} {
				opts := fedca.DefaultOptions()
				opts.Clients = 4
				opts.LocalIters = 6
				opts.BatchSize = 8
				opts.TrainSamples = 256
				opts.TestSamples = 64
				opts.Seed = seed
				opts.Chaos = chaos
				opts.Telemetry = tel
				f, err := fedca.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				f.Run(3)
				d := f.DegradationStats()
				s, _ := f.FedCAStats()
				for i, n := range []int{d.Rounds, d.SkippedRounds, d.Quarantined, d.DroppedRounds, s.EarlyStops,
					s.FullRounds, s.EagerSentTotal, s.RetransmitsTotal, s.AnchorRounds, s.AnchorAborts} {
					want[i] += float64(n)
				}
			}
			got := []float64{tel.Rounds.Value(), tel.SkippedRounds.Value(), tel.Quarantined.Value(), tel.Dropouts.Value(),
				tel.EarlyStops.Value(), tel.FullRounds.Value(), tel.EagerTx.Value(), tel.Retransmits.Value(),
				tel.AnchorRounds.Value(), tel.AnchorAborts.Value()}
			for i, name := range names {
				if got[i] != want[i] {
					t.Errorf("shared sink counts %v %s; the two federations' tallies sum to %v", got[i], name, want[i])
				}
			}
			if want[5] == 0 || want[6] == 0 || want[8] == 0 || chaos != "none" && want[9] == 0 {
				t.Fatalf("tallies %v: the runs need full rounds, eager sends, anchors and, under chaos, anchor aborts", want)
			}
		})
	}
}

// TestSnapshotStageTable: the snapshot carries the run's wall-clock stage
// table, one row per runner stage in round order, each counting the rounds
// that ran it — a skipped round does not aggregate — and the sink holds one
// fedca_stage_seconds histogram per stage with the same counts and sums.
func TestSnapshotStageTable(t *testing.T) {
	stages := []string{"plan", "cohort", "controllers", "train", "cut", "aggregate", "recycle", "evaluate", "observe"}
	for _, tc := range []struct {
		name               string
		quorum, aggregated int
	}{{"aggregating", 0, 3}, {"skipped", 5, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := fedca.DefaultOptions()
			opts.Clients = 4
			opts.LocalIters = 6
			opts.BatchSize = 8
			opts.TrainSamples = 256
			opts.TestSamples = 64
			opts.MinQuorum = tc.quorum // more than the 4 clients: every round is skipped
			tel := fedca.NewTelemetry()
			opts.Telemetry = tel
			f, err := fedca.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			f.Run(3)
			wall := time.Since(start).Seconds()

			snap := f.Snapshot()
			if len(snap.Stages) != len(stages) {
				t.Fatalf("snapshot has %d stage rows, want %d: %+v", len(snap.Stages), len(stages), snap.Stages)
			}
			hist := map[string]telemetry.MetricSnapshot{}
			for _, m := range tel.Registry().Snapshot() {
				if m.Name == "fedca_stage_seconds" {
					hist[m.Labels["stage"]] = m
				}
			}
			total := 0.0
			for i, st := range snap.Stages {
				want := 3
				if st.Stage == "aggregate" {
					want = tc.aggregated
				}
				if st.Stage != stages[i] || st.Rounds != want || st.Seconds < 0 {
					t.Errorf("stage row %d = %+v, want stage %q over %d rounds", i, st, stages[i], want)
				}
				if h := hist[st.Stage]; h.Count != uint64(st.Rounds) || math.Abs(h.Sum-st.Seconds) > 1e-9 {
					t.Errorf("sink's %s histogram counts %d rounds summing to %v s; the table %d rounds, %v s", st.Stage, h.Count, h.Sum, st.Rounds, st.Seconds)
				}
				total += st.Seconds
			}
			if train := snap.Stages[3]; train.Seconds <= 0 || total > wall {
				t.Errorf("train took %v s of a %v s table; the rounds took %v s of wall time", train.Seconds, total, wall)
			}
		})
	}
}
