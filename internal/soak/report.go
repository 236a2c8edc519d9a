package soak

import (
	"encoding/json"
	"fmt"
	"os"

	"fedca/internal/runlog"
)

// PhaseInfo identifies one executed phase — its position in the rotation
// and its canonical spec string, which alone reproduces it (RunPhase) — as
// the run log's phase marker does.
type PhaseInfo = runlog.PhaseMarker

// BandSet carries a phase's resolved acceptance bands into its result so
// the report is self-describing (the rates monitor reads them from here).
type BandSet struct {
	Skip       Band `json:"skip"`
	Quarantine Band `json:"quarantine"`
	Retry      Band `json:"retry"`
}

// PhaseResult is one completed phase's outcome.
type PhaseResult struct {
	PhaseInfo
	Bands BandSet `json:"bands"`

	// Fingerprint is the SHA-256 over every round's JSON record, each with
	// the global model's digest: the phase's behavioural identity. A serial
	// re-run of Spec must reproduce it bit-for-bit.
	Fingerprint string `json:"fingerprint"`

	FinalAccuracy float64 `json:"final_accuracy"`
	SkippedRounds int     `json:"skipped_rounds"`
	Quarantined   int     `json:"quarantined"`
	DroppedRounds int     `json:"dropped_rounds"`
	LinkRetries   int     `json:"link_retries"` // failed uplink attempts (RunStats.LinkRetries)
	// Collected counts updates that entered aggregation across the phase
	// (the quarantine-rate denominator together with Quarantined).
	Collected int `json:"collected"`
	// HeapBytes is the post-GC live heap measured at the phase boundary,
	// after the phase's federation was released.
	HeapBytes uint64 `json:"heap_bytes"`
}

// Report is the structured outcome of a soak run, JSON-ready. Pass is false
// iff any monitor recorded a violation; each violation names the phase,
// round and spec string (seed included) needed to reproduce it.
type Report struct {
	Schedule     string `json:"schedule"` // the schedule spec the run was launched with
	Seed         uint64 `json:"seed"`
	Rounds       int    `json:"rounds"` // rounds actually completed
	CheckEvery   int    `json:"check_every"`
	RecheckEvery int    `json:"recheck_every"`

	Phases     []PhaseResult `json:"phases"`
	Violations []Violation   `json:"violations"`
	Pass       bool          `json:"pass"`

	// TokenCap / MaxInflight snapshot the CPU-token budget over the run.
	TokenCap    int `json:"token_cap"`
	MaxInflight int `json:"max_inflight_tokens"`

	// Rechecks counts the serial determinism rechecks the run executed.
	Rechecks int `json:"rechecks"`
}

// WriteReport writes the report as indented JSON to path.
func WriteReport(path string, r *Report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	return nil
}

// ReadReport parses a report written by WriteReport.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("soak: %s: %w", path, err)
	}
	return &r, nil
}
