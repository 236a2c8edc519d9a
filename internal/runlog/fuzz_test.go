package runlog_test

import (
	"bytes"
	"reflect"
	"testing"

	"fedca/internal/runlog"
)

// FuzzReadRoundTrip feeds arbitrary bytes to the JSON-lines parser. Invalid
// input must be rejected with an error (never a panic); any log Read accepts
// must survive a write/re-read cycle bit-for-bit: encoding/json renders
// float64 in shortest round-trip form, so Read(Write(Read(x))) == Read(x).
func FuzzReadRoundTrip(f *testing.F) {
	f.Add([]byte(`{"kind":"header","model":"cnn","scheme":"fedca","clients":100,"k":10,"seed":42,"alpha":0.5}
{"kind":"round","round":0,"start":0,"end":12.5,"accuracy":0.31,"collected":9,"discarded":1,"dropped":1,"mean_iterations":125,"upload_bytes":1394000}
{"kind":"round","round":1,"start":12.5,"end":30.25,"accuracy":0.38,"collected":10,"discarded":0,"mean_iterations":120.5,"mean_eager_sent":1.5,"mean_retrans":0.25,"upload_bytes":2e6,"skipped":true,"quarantined":2,"link_retries":3}`))
	f.Add([]byte(`{"kind":"header","model":"wrn","scheme":"fedavg","clients":32,"k":50,"seed":7,"alpha":0.1,"chaos":"drop=0.1,slow=0.3,degrade=0.2,outage=0.05,xfail=0.02,corrupt=0.01","quorum":5,"max_norm":12.5,"compress":"qsgd7"}
{"kind":"round","round":0,"start":0,"end":40,"accuracy":0.2,"collected":4,"discarded":28,"skipped":true}`))
	f.Add([]byte(`{"kind":"header","model":"cnn","scheme":"fedca","clients":8,"k":10,"seed":1,"alpha":0.5,"max_norm":1e6}`))
	f.Add([]byte(`{"kind":"header","model":"lstm","scheme":"fedca","clients":16,"k":25,"seed":3,"alpha":0.1,"dtype":"f32"}
{"kind":"round","round":0,"start":0,"end":9.75,"accuracy":0.41,"collected":16,"mean_iterations":25,"upload_bytes":200000}`))
	f.Add([]byte(`{"kind":"header","model":"cnn","scheme":"fedca","clients":4,"k":4,"seed":11}
{"kind":"phase","index":0,"name":"calm","spec":"name=calm;rounds=2;model=cnn;scheme=fedca;clients=4;iters=4;batch=8;train=256;test=64;alpha=0.1;chaos=none;quorum=1;maxnorm=0;skipband=0:0.75;quarband=0:0.75;retryband=0:1e+06","seed":987654321,"start_round":0,"rounds":2}
{"kind":"round","round":0,"start":0,"end":3.5,"accuracy":0.4,"collected":4,"mean_iterations":4}
{"kind":"phase","index":1,"cycle":1,"name":"storm","spec":"name=storm;rounds=2","seed":42,"start_round":2}`))
	f.Add([]byte(`{"kind":"header","spec":"v=1;model=cnn;geometry=tiny;scheme=fedavg;seed=7;clients=8;chaos=drop=0.1,corrupt=0.05;maxnorm=1e+06"}
{"kind":"round","round":0,"start":0,"end":2.5,"accuracy":0.5,"collected":7,"discarded":1,"dropped":1,"mean_iterations":25,"upload_bytes":1e5,"params":"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}`))
	f.Add([]byte(`{"kind":"round","round":3,"end":1e-300,"accuracy":0.999999999999}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"kind":"bogus"}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := runlog.Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only guarantee is no panic
		}
		var buf bytes.Buffer
		w := runlog.NewWriter(&buf)
		if run.Header.Kind != "" {
			if err := w.WriteHeader(run.Header); err != nil {
				t.Fatalf("re-serializing accepted header: %v", err)
			}
		}
		for _, p := range run.Phases {
			if err := w.WritePhase(p); err != nil {
				t.Fatalf("re-serializing accepted phase marker: %v", err)
			}
		}
		for _, rec := range run.Rounds {
			if err := w.WriteRound(rec); err != nil {
				t.Fatalf("re-serializing accepted record: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		run2, err := runlog.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading our own serialization: %v\nlog:\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(run, run2) {
			t.Fatalf("round-trip drift:\n before: %+v\n after:  %+v", run, run2)
		}
	})
}
