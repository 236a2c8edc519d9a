// Package introspect serves a run's live HTTP introspection surface over a
// telemetry sink and journal. It is the one library package that imports
// net/http: the simulator links no network stack, and only the programs
// that serve HTTP (fedca-sim -http, fedca-sim soak -http) pay for one. A library user mounts the same surface on a federation with
//
//	introspect.NewMux(tel, f.Journal(), func() any { return f.Snapshot() })
package introspect

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"

	"fedca/internal/telemetry"
)

// NewMux builds the live introspection surface of a run:
//
//	/metrics        Prometheus text exposition of the sink's registry,
//	                with the fedca_runtime_* health gauges refreshed first
//	/metrics.json   the same registry as a JSON array
//	/status         the caller's status snapshot as JSON (current round,
//	                runner and scheme stats — anything status() returns)
//	/events         journal events with Seq > ?since=SEQ (ascending) and
//	                last_seq, the Seq of the newest one (SEQ when none)
//	/clients        per-client attribution, ?k=K top clients by ?sort=KEY
//	                (400 on a key TopK does not know; none means compute)
//	/healthz        liveness probe: refreshes the runtime gauges and reports
//	                ok plus the journal's last sequence number
//	/debug/pprof/…  the standard net/http/pprof handlers
//
// j may be nil (the journal endpoints then serve empty sets) and status may
// be nil (the endpoint then serves the registry snapshot). Every handler is
// safe to hit while the simulation runs: status() must only use race-safe
// accessors (the fl runner's Stats, sink gauges), and the
// journal is internally locked. The journal, the client-round spans and the
// scheme counters advance once per round, when the runner records it.
func NewMux(s *telemetry.Sink, j *telemetry.Journal, status func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg := s.Registry(); reg != nil {
			s.Health().Refresh()
			_ = reg.WriteProm(w)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		if reg := s.Registry(); reg != nil {
			s.Health().Refresh()
			writeJSON(w, reg.Snapshot())
		} else {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte("[]\n"))
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		var v any
		if status != nil {
			v = status()
		} else if reg := s.Registry(); reg != nil {
			v = reg.Snapshot()
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		since := uint64(0)
		if q := r.URL.Query().Get("since"); q != "" {
			n, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			since = n
		}
		// The cursor is the newest event served, never a later read of
		// LastSeq: an event recorded after Since must stay above it.
		events := j.Since(since)
		if n := len(events); n > 0 {
			since = events[n-1].Seq
		} else {
			events = []telemetry.Event{}
		}
		writeJSON(w, map[string]any{
			"last_seq": since,
			"events":   events,
		})
	})
	mux.HandleFunc("/clients", func(w http.ResponseWriter, r *http.Request) {
		k := 0
		if q := r.URL.Query().Get("k"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad k: "+err.Error(), http.StatusBadRequest)
				return
			}
			k = n
		}
		t := j.Clients()
		stats, err := t.TopK(k, r.URL.Query().Get("sort"))
		if err != nil {
			http.Error(w, "bad sort: "+err.Error(), http.StatusBadRequest)
			return
		}
		if stats == nil {
			stats = []telemetry.ClientStats{}
		}
		writeJSON(w, map[string]any{
			"clients":   stats,
			"untracked": t.Untracked(),
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.Health().Refresh()
		writeJSON(w, map[string]any{
			"ok":       true,
			"last_seq": j.LastSeq(),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON marshals v to a buffer first and only then touches the
// ResponseWriter, so an encoding failure yields a clean 500 instead of a 200
// header followed by a truncated body (json.Encoder streams as it encodes).
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(buf, '\n'))
}
