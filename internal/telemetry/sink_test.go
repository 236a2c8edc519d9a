package telemetry

import (
	"testing"

	"fedca/internal/cputok"
)

// scrapeInflight refreshes s's runtime-health bridge, as the mux does on
// every /metrics request, and returns the fedca_cputok_inflight it reads.
func scrapeInflight(s *Sink) float64 {
	s.Health().Refresh()
	return s.Health().inflight.Value()
}

// borrowOne takes one token from the process-wide budget for a test's
// traffic; the caller returns it.
func borrowOne(t *testing.T) {
	t.Helper()
	if cputok.Default().Borrow(1) != 1 {
		t.Fatal("default budget exhausted; cannot drive gauge traffic")
	}
}

// TestSinksScrapeCputokInflight: fedca_cputok_inflight is read from the
// process-wide budget at scrape, so every live sink reports the current
// in-flight count.
func TestSinksScrapeCputokInflight(t *testing.T) {
	b := cputok.Default()
	s1, s2 := New(), New()
	base := b.Inflight()
	borrowOne(t)
	if g1, g2 := scrapeInflight(s1), scrapeInflight(s2); g1 != float64(base+1) || g2 != float64(base+1) {
		t.Fatalf("scraped gauges = %v, %v; want both %d", g1, g2, base+1)
	}
	b.Return(1)
	if g1, g2 := scrapeInflight(s1), scrapeInflight(s2); g1 != float64(base) || g2 != float64(base) {
		t.Fatalf("after Return the gauges read %v, %v; want both %d", g1, g2, base)
	}
}

// TestSinkCloseRestoresCputokGauge is the regression test for the stale
// cputok gauge: a short-lived sink (a soak determinism recheck, a per-phase
// federation) built and closed while a long-lived sink is live must neither
// blind the long-lived sink nor be left stale itself. Close is a no-op, so
// there is nothing to restore: both keep reading the live count.
func TestSinkCloseRestoresCputokGauge(t *testing.T) {
	b := cputok.Default()
	long := New()
	base := b.Inflight()

	phase := New()
	borrowOne(t)
	if gl, gp := scrapeInflight(long), scrapeInflight(phase); gl != float64(base+1) || gp != float64(base+1) {
		t.Fatalf("live gauges = %v, %v; want both %d", gl, gp, base+1)
	}
	phase.Close()
	if g := scrapeInflight(long); g != float64(base+1) {
		t.Fatalf("after the phase sink's Close the long-lived gauge reads %v, want %d", g, base+1)
	}
	b.Return(1)
	if gl, gp := scrapeInflight(long), scrapeInflight(phase); gl != float64(base) || gp != float64(base) {
		t.Fatalf("post-drain gauges = %v, %v; want both %d", gl, gp, base)
	}
	// A second Close changes nothing either.
	phase.Close()
	borrowOne(t)
	if g := scrapeInflight(long); g != float64(base+1) {
		t.Fatalf("after a repeated Close the long-lived gauge reads %v, want %d", g, base+1)
	}
	b.Return(1)
}

// TestSinkCloseOutOfOrder: closing an older sink while a newer one is live,
// then the newer one, leaves every sink reading the live count.
func TestSinkCloseOutOfOrder(t *testing.T) {
	b := cputok.Default()
	s1, s2 := New(), New()
	base := b.Inflight()
	s1.Close()
	borrowOne(t)
	if g1, g2 := scrapeInflight(s1), scrapeInflight(s2); g1 != float64(base+1) || g2 != float64(base+1) {
		t.Fatalf("gauges after out-of-order close = %v, %v; want both %d", g1, g2, base+1)
	}
	s2.Close()
	b.Return(1)
	if g1, g2 := scrapeInflight(s1), scrapeInflight(s2); g1 != float64(base) || g2 != float64(base) {
		t.Fatalf("gauges after both closes = %v, %v; want both %d", g1, g2, base)
	}
}
