package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fedca-sim golden outputs")

// simGoldenRows are the pinned fedca-sim configurations. Every row runs at
// -scale tiny -rounds 6 -seed 7 with these flags added.
var simGoldenRows = []struct {
	name string
	args []string
}{
	{"fedavg", []string{"-scheme", "fedavg"}},
	{"fedprox", []string{"-scheme", "fedprox"}},
	{"fedada", []string{"-scheme", "fedada"}},
	{"fedca", []string{"-scheme", "fedca"}},
	{"fedca-v1", []string{"-scheme", "fedca-v1"}},
	// FedCA retransmits on the WRN in these rounds (fedca-wrn), FedCA-v2
	// never does: the row pins what v2 leaves out.
	{"fedca-v2", []string{"-scheme", "fedca-v2", "-model", "wrn"}},
	{"oort", []string{"-scheme", "oort"}},
	// A cut at ⌈0.75·8⌉ = 6 leaves late updates for SAFA to carry.
	{"safa", []string{"-scheme", "safa", "-aggfrac", "0.75"}},
	{"fedca-lstm", []string{"-scheme", "fedca", "-model", "lstm"}},
	{"fedca-wrn", []string{"-scheme", "fedca", "-model", "wrn"}},
	{"fedca-f32", []string{"-scheme", "fedca", "-dtype", "f32"}},
	{"fedca-qsgd7", []string{"-scheme", "fedca", "-compress", "qsgd7"}},
	{"fedca-chaos", []string{"-scheme", "fedca", "-chaos", "drop=0.1,corrupt=0.05"}},
	// A NopController that never reads the delta, the worker's proximal
	// step (RoundPlan.Prox) at float32, and a cut that takes the whole
	// cohort (aggfrac 1).
	{"fedprox-f32", []string{"-scheme", "fedprox", "-dtype", "f32", "-aggfrac", "1"}},
	{"fedavg-fleet", []string{"-scheme", "fedavg", "-fleet", "2000", "-participation", "0.01"}},
	{"oort-fleet", []string{"-scheme", "oort", "-fleet", "2000", "-participation", "0.01"}},
}

// TestSimGolden pins fedca-sim's stdout and -log run log, byte for byte, on
// one row per scheme, model, dtype, compressor, fault mix, reduce path and
// fleet shape. Runs are bit-reproducible from their flags, so any diff is a
// behaviour change.
//
// Update procedure (only after deliberately changing what a run does):
//
//	go test ./cmd/fedca-sim -run TestSimGolden -update
//	git diff cmd/fedca-sim/testdata   # every changed row must be explained
func TestSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fedca-sim")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fedca-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, row := range simGoldenRows {
		t.Run(row.name, func(t *testing.T) {
			logPath := filepath.Join(dir, row.name+".jsonl")
			args := append([]string{"-scale", "tiny", "-rounds", "6", "-seed", "7", "-log", logPath}, row.args...)
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("fedca-sim %v: %v\n%s", args, err, stderr.Bytes())
			}
			log, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				path string
				got  []byte
			}{
				{filepath.Join("testdata", "sim", row.name+".out"), stdout.Bytes()},
				{filepath.Join("testdata", "sim", row.name+".jsonl"), log},
			} {
				if *update {
					if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatalf("%v (run with -update to create the golden)", err)
				}
				if !bytes.Equal(f.got, want) {
					t.Errorf("%s drifted from the golden:\n got:\n%s\nwant:\n%s", f.path, f.got, want)
				}
			}
		})
	}
}
