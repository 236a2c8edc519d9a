package fedca_test

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"fedca"
)

// TestFacadeTelemetry exercises the public observability surface: a sink
// attached through Options, the federation snapshot, and the introspection
// handler built by NewTelemetryMux.
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

	srv := httptest.NewServer(fedca.NewTelemetryMux(tel, f))
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
	if got.Round != snap.Round || got.Accuracy != snap.Accuracy {
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
