package introspect_test

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
	"fedca/introspect"
)

// smallWorkload mirrors the fl package's tiny CNN test workload.
func smallWorkload() expcfg.Workload {
	w := expcfg.CNN()
	w.Img.Height, w.Img.Width = 8, 8
	w.Wrn.Image = w.Img
	w.Img.Classes = 4
	w.FL.BaseIterTime = 0.1
	w.FL.ModelBytes = 0
	w.FL.LocalIters, w.FL.BatchSize = 8, 16
	w.TrainN, w.TestN = 256, 128
	return w
}

func get(t *testing.T, mux *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := mux.Client().Get(mux.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b.String()
}

// TestHTTPIntrospectionDuringChaosRun drives a chaos-enabled simulation while
// a background goroutine hammers the introspection endpoints. Meaningful
// under -race: it proves /metrics and /status are safe to poll mid-round.
func TestHTTPIntrospectionDuringChaosRun(t *testing.T) {
	w := smallWorkload()
	eng, err := chaos.NewEngine(chaos.Config{
		DropProb:     0.3,
		SlowProb:     0.5,
		DegradeProb:  0.3,
		OutageProb:   0.25,
		XferFailProb: 0.2,
		CorruptProb:  0.25,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	w.FL.Chaos = eng
	sink, journal := telemetry.New(), telemetry.NewJournal(256)
	w.FL.Observers = []fl.Observer{sink, journal}
	tb := expcfg.Build(w, 6, trace.PaperConfig(), 50)
	runner, err := tb.NewRunner(baseline.FedAvg{})
	if err != nil {
		t.Fatal(err)
	}
	mux := introspect.NewMux(sink, journal, func() any {
		return struct {
			Round float64     `json:"round"`
			Stats fl.RunStats `json:"stats"`
		}{sink.Round.Value(), runner.Stats()}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/status", "/metrics.json", "/events", "/clients", "/healthz"} {
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s during run: %v", path, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("GET %s = %d during run", path, resp.StatusCode)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 3; i++ {
		runner.RunRound()
	}
	close(done)
	wg.Wait()

	code, ctype, body := get(t, srv, "/metrics")
	if code != 200 || !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("GET /metrics = %d %q", code, ctype)
	}
	if !strings.Contains(body, "# TYPE fedca_rounds_total counter") ||
		!strings.Contains(body, "fedca_rounds_total 3") {
		t.Fatalf("metrics output missing round counter:\n%s", body)
	}

	code, ctype, body = get(t, srv, "/status")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("GET /status = %d %q", code, ctype)
	}
	var status struct {
		Round float64     `json:"round"`
		Stats fl.RunStats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("status is not valid JSON: %v\n%s", err, body)
	}
	if status.Round != 3 {
		t.Fatalf("status round = %v, want 3", status.Round)
	}

	code, _, body = get(t, srv, "/metrics.json")
	if code != 200 {
		t.Fatalf("GET /metrics.json = %d", code)
	}
	var snap []telemetry.MetricSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics.json is not valid JSON: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("metrics.json empty")
	}

	if code, _, _ := get(t, srv, "/debug/pprof/"); code != 200 {
		t.Fatalf("GET /debug/pprof/ = %d", code)
	}

	// /metrics must carry the runtime-health gauges refreshed on scrape.
	_, _, promBody := get(t, srv, "/metrics")
	if !strings.Contains(promBody, "fedca_runtime_goroutines") ||
		!strings.Contains(promBody, "fedca_runtime_gomaxprocs") {
		t.Fatalf("metrics output missing fedca_runtime_* gauges:\n%s", promBody)
	}

	// /events serves the journal ascending with a last_seq cursor.
	code, ctype, body = get(t, srv, "/events")
	if code != 200 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("GET /events = %d %q", code, ctype)
	}
	var evResp struct {
		LastSeq uint64            `json:"last_seq"`
		Events  []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &evResp); err != nil {
		t.Fatalf("events is not valid JSON: %v\n%s", err, body)
	}
	if len(evResp.Events) == 0 || evResp.LastSeq == 0 {
		t.Fatalf("journal empty after a chaos run: %+v", evResp)
	}
	rounds := 0
	for i, e := range evResp.Events {
		if i > 0 && e.Seq <= evResp.Events[i-1].Seq {
			t.Fatalf("events not ascending at %d: %+v", i, evResp.Events)
		}
		if e.Type == telemetry.EvRound || e.Type == telemetry.EvRoundSkip {
			rounds++
		}
	}
	if rounds != 3 {
		t.Fatalf("journal has %d round events, want 3", rounds)
	}
	// since=last_seq returns nothing new.
	code, _, body = get(t, srv, "/events?since="+jsonNumber(evResp.LastSeq))
	if code != 200 {
		t.Fatalf("GET /events?since = %d", code)
	}
	var tail struct {
		Events []telemetry.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 0 {
		t.Fatalf("events since last_seq should be empty, got %d", len(tail.Events))
	}
	if code, _, _ := get(t, srv, "/events?since=bogus"); code != 400 {
		t.Fatalf("GET /events?since=bogus = %d, want 400", code)
	}

	// /clients serves the attribution table, top-K ordered.
	code, _, body = get(t, srv, "/clients?k=3&sort=compute")
	if code != 200 {
		t.Fatalf("GET /clients = %d", code)
	}
	var clResp struct {
		Clients []telemetry.ClientStats `json:"clients"`
	}
	if err := json.Unmarshal([]byte(body), &clResp); err != nil {
		t.Fatalf("clients is not valid JSON: %v\n%s", err, body)
	}
	if len(clResp.Clients) == 0 || len(clResp.Clients) > 3 {
		t.Fatalf("clients k=3 returned %d entries", len(clResp.Clients))
	}
	for i := 1; i < len(clResp.Clients); i++ {
		if clResp.Clients[i].ComputeSec > clResp.Clients[i-1].ComputeSec {
			t.Fatalf("clients not sorted by compute desc: %+v", clResp.Clients)
		}
	}
	if code, _, _ := get(t, srv, "/clients?k=bogus"); code != 400 {
		t.Fatalf("GET /clients?k=bogus = %d, want 400", code)
	}
	// An unknown sort key is rejected with the valid ones; none means compute.
	code, _, body = get(t, srv, "/clients?sort=bogus")
	if code != 400 || !strings.Contains(body, "iterations") || !strings.Contains(body, "quarantines") {
		t.Fatalf("GET /clients?sort=bogus = %d %q, want 400 naming the keys", code, body)
	}
	_, _, byDefault := get(t, srv, "/clients?k=3")
	_, _, byCompute := get(t, srv, "/clients?k=3&sort=compute")
	if byDefault != byCompute {
		t.Fatalf("GET /clients without sort:\n%s\nwant the compute order:\n%s", byDefault, byCompute)
	}

	// /healthz reports ok and the journal cursor.
	code, _, body = get(t, srv, "/healthz")
	if code != 200 {
		t.Fatalf("GET /healthz = %d", code)
	}
	var hz struct {
		OK      bool   `json:"ok"`
		LastSeq uint64 `json:"last_seq"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.LastSeq != evResp.LastSeq {
		t.Fatalf("healthz = %+v, want ok with last_seq %d", hz, evResp.LastSeq)
	}
}

func jsonNumber(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestEventsCursorLosesNothing follows the /events cursor the way a poller
// should — each request asks for the events after the last last_seq it saw —
// while a goroutine records. The ring holds every event, so the poller must
// collect each Seq exactly once; a last_seq above an event the response did
// not carry skips that event for good.
func TestEventsCursorLosesNothing(t *testing.T) {
	const total = 200_000
	j := telemetry.NewJournal(total)
	srv := httptest.NewServer(introspect.NewMux(nil, j, nil))
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			j.CapChange(i, i+1)
		}
	}()
	seen := make([]int, total+1)
	var cursor uint64
	for finished := false; ; {
		select {
		case <-done:
			finished = true
		default:
		}
		code, _, body := get(t, srv, "/events?since="+jsonNumber(cursor))
		var resp struct {
			LastSeq uint64            `json:"last_seq"`
			Events  []telemetry.Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &resp); code != 200 || err != nil {
			t.Fatalf("GET /events = %d, %v", code, err)
		}
		for _, e := range resp.Events {
			seen[e.Seq]++
		}
		cursor = resp.LastSeq
		if finished && len(resp.Events) == 0 {
			break
		}
	}
	for seq := 1; seq <= total; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d collected %d times, want once (cursor ended at %d)", seq, seen[seq], cursor)
		}
	}
}

// TestMuxStatusFallback covers the mux with no status closure: /status must
// fall back to the registry snapshot instead of failing.
func TestMuxStatusFallback(t *testing.T) {
	sink := telemetry.New()
	sink.Rounds.Inc()
	srv := httptest.NewServer(introspect.NewMux(sink, nil, nil))
	defer srv.Close()
	code, _, body := get(t, srv, "/status")
	if code != 200 {
		t.Fatalf("GET /status = %d", code)
	}
	if !strings.Contains(body, "fedca_rounds_total") {
		t.Fatalf("fallback status missing metrics:\n%s", body)
	}
	// Journal endpoints degrade gracefully with no journal attached.
	code, _, body = get(t, srv, "/events")
	if code != 200 || !strings.Contains(body, `"events": []`) {
		t.Fatalf("GET /events without journal = %d:\n%s", code, body)
	}
	code, _, body = get(t, srv, "/clients")
	if code != 200 || !strings.Contains(body, `"clients": []`) {
		t.Fatalf("GET /clients without journal = %d:\n%s", code, body)
	}
	if code, _, _ = get(t, srv, "/healthz"); code != 200 {
		t.Fatalf("GET /healthz without journal = %d", code)
	}
}

// TestMuxStatusEncodeFailure covers the partial-write bug: a status closure
// returning an unmarshalable value must yield a clean 500 with an error body,
// never a 200 header followed by truncated JSON (the old handler streamed
// through json.Encoder and called http.Error after bytes were already out).
func TestMuxStatusEncodeFailure(t *testing.T) {
	sink := telemetry.New()
	srv := httptest.NewServer(introspect.NewMux(sink, nil, func() any {
		return map[string]any{"bad": func() {}} // func values cannot marshal
	}))
	defer srv.Close()
	code, ctype, body := get(t, srv, "/status")
	if code != 500 {
		t.Fatalf("GET /status with unmarshalable value = %d, want 500", code)
	}
	if strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("error response mislabelled as JSON: %q", ctype)
	}
	if strings.Contains(body, "{") {
		t.Fatalf("error response leaked a partial JSON body:\n%s", body)
	}
}
