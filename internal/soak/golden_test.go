package soak

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fedca/internal/runlog"
)

var update = flag.Bool("update", false, "rewrite golden soak fixtures")

// goldenConfig is the pinned end-to-end configuration: one fixed (seed,
// chaos spec, quorum) soak whose run-log bytes are committed under testdata.
// Any change to the simulation's observable behaviour — round results,
// degradation accounting, log encoding, parameter arithmetic (every round
// record carries the global model's digest) — shows up as a byte diff here.
func goldenConfig(log *runlog.Writer) Config {
	return Config{
		Schedule: "name=golden-calm;rounds=4" +
			"|name=golden-chaos;rounds=4;chaos=drop=0.2,slow=0.3,xfail=0.1,retries=3;quorum=2",
		Rounds:       8,
		Seed:         20240807,
		Base:         tinyBase(),
		Run:          tinyRun(),
		CheckEvery:   4,
		RecheckEvery: -1, // rechecks don't touch the log; keep the fixture fast
		Log:          log,
	}
}

// TestGoldenSoakRunLog locks the soak's end-to-end byte-level behaviour.
//
// Update procedure (ONLY after deliberately changing simulation semantics,
// never to silence an unexpected diff):
//
//	go test ./internal/soak/ -run TestGoldenSoakRunLog -update
//	git diff internal/soak/testdata   # review: every change must be explained
//
// An unexpected diff means a determinism regression: the same (seed, spec,
// quorum) no longer reproduces the same run. Investigate before updating.
func TestGoldenSoakRunLog(t *testing.T) {
	logPath := filepath.Join("testdata", "golden_soak.jsonl")

	var buf bytes.Buffer
	w := runlog.NewWriter(&buf)
	r, err := New(goldenConfig(w))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("golden soak has violations: %+v", rep.Violations)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten: %s", logPath)
		return
	}

	wantLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(buf.Bytes(), wantLog) {
		t.Fatalf("run-log bytes drifted from golden fixture.\nThis means equal (seed, spec, quorum) no longer reproduce the same run.\nIf the change is intentional, re-pin with -update and explain the diff in the PR.\n got %d bytes, want %d bytes\n first divergence: byte %d",
			buf.Len(), len(wantLog), firstDiff(buf.Bytes(), wantLog))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
