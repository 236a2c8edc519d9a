package cputok_test

import (
	"testing"

	"fedca/internal/cputok"
	"fedca/internal/telemetry"
)

// scrapeInflight refreshes the sink's runtime-health bridge, as the mux does
// on every /metrics request, and returns the fedca_cputok_inflight it reads.
func scrapeInflight(t *testing.T, s *telemetry.Sink) float64 {
	t.Helper()
	s.Health().Refresh()
	for _, m := range s.Registry().Snapshot() {
		if m.Name == "fedca_cputok_inflight" {
			return m.Value
		}
	}
	t.Fatal("fedca_cputok_inflight not registered")
	return 0
}

// TestGaugeMirrorsInflight: the exported fedca_cputok_inflight gauge follows
// the process-wide budget's in-flight count through Borrow and Return.
func TestGaugeMirrorsInflight(t *testing.T) {
	b := cputok.Default()
	defer b.SetCap(b.Setting())
	b.SetCap(b.Inflight() + 4)
	base := float64(b.Inflight())
	s := telemetry.New()
	if got := scrapeInflight(t, s); got != base {
		t.Fatalf("gauge after attach = %v, want %v", got, base)
	}
	if n := b.Borrow(3); n != 3 {
		t.Fatalf("Borrow(3) = %d, want 3", n)
	}
	if got := scrapeInflight(t, s); got != base+3 {
		t.Fatalf("gauge after Borrow(3) = %v, want %v", got, base+3)
	}
	b.Return(2)
	if got := scrapeInflight(t, s); got != base+1 {
		t.Fatalf("gauge after Return(2) = %v, want %v", got, base+1)
	}
	s.Close() // closing the sink must not disturb later traffic
	b.Return(1)
	if got := scrapeInflight(t, s); got != base {
		t.Fatalf("gauge after drain = %v, want %v", got, base)
	}
}
