// Package runlog persists training runs as JSON-lines files — one header
// record followed by one record per round — so long simulations can be
// inspected, resumed into plots, or diffed across schemes without rerunning.
package runlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"fedca/internal/fl"
)

// Header identifies a run by its spec: the canonical text form of the run's
// options (expcfg.Options.String), which records every value that shapes
// the run, so the header alone reproduces it bit-for-bit (fedca-sim replay).
type Header struct {
	Kind string `json:"kind"` // always "header"
	Spec string `json:"spec"`
}

// Record is one logged round: the runner's round record, written tagged
// kind "round".
type Record = fl.RoundRecord

// PhaseMarker is one executed soak phase: its position and its canonical
// spec string, seed included, which alone reproduces it (soak.RunPhase). A
// soak report lists it per phase (soak.PhaseInfo); a run log holds it as
// the boundary before the phase's rounds.
type PhaseMarker struct {
	Index      int    `json:"index"` // global phase ordinal
	Cycle      int    `json:"cycle,omitempty"`
	Name       string `json:"name"`
	Spec       string `json:"spec"`
	StartRound int    `json:"start_round"`
	Rounds     int    `json:"rounds,omitempty"`
}

// Writer streams a run to an io.Writer as JSON lines.
type Writer struct {
	w      *bufio.Writer
	closer io.Closer
}

// NewWriter wraps an io.Writer (no close responsibility).
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Create opens a log file for writing (truncates).
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return &Writer{w: bufio.NewWriter(f), closer: f}, nil
}

// WriteHeader emits the run header. Call once, first.
func (w *Writer) WriteHeader(h Header) error {
	h.Kind = "header"
	return w.emit(h)
}

// WriteRound emits one round record, tagged kind "round".
func (w *Writer) WriteRound(r Record) error {
	return w.emit(struct {
		Kind string `json:"kind"`
		Record
	}{"round", r})
}

// WritePhase emits a soak-phase boundary marker, tagged kind "phase".
func (w *Writer) WritePhase(p PhaseMarker) error {
	return w.emit(struct {
		Kind string `json:"kind"`
		PhaseMarker
	}{"phase", p})
}

func (w *Writer) emit(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	if _, err := w.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}

// Close flushes and closes the underlying file (if any).
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	if w.closer != nil {
		return w.closer.Close()
	}
	return nil
}

// Run is a fully parsed log.
type Run struct {
	Header Header
	Phases []PhaseMarker
	Rounds []Record
}

// Read parses a JSON-lines run log.
func Read(r io.Reader) (*Run, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	run := &Run{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return nil, fmt.Errorf("runlog: line %d: %w", line, err)
		}
		switch kind.Kind {
		case "header":
			if err := json.Unmarshal(raw, &run.Header); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
		case "round":
			var rec Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
			run.Rounds = append(run.Rounds, rec)
		case "phase":
			var p PhaseMarker
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
			run.Phases = append(run.Phases, p)
		default:
			return nil, fmt.Errorf("runlog: line %d: unknown kind %q", line, kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return run, nil
}

// Open reads a run log from disk.
func Open(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	defer f.Close()
	return Read(f)
}
