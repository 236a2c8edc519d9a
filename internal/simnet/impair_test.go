package simnet

import (
	"math"
	"testing"
)

// TestImpairDegrade: a half-bandwidth window doubles the service time of the
// bytes carried inside it.
func TestImpairDegrade(t *testing.T) {
	l := NewLink(100, 0) // 100 B/s
	l.Impair(0, math.Inf(1), 0.5)
	_, end := l.TransferAttempts(0, 100, 1)
	if end != 2.0 {
		t.Fatalf("degraded transfer end = %v, want 2.0", end)
	}
}

// TestImpairOutage: service pauses during an outage window and resumes after.
func TestImpairOutage(t *testing.T) {
	l := NewLink(100, 0)
	// 100 B at 100 B/s would take 1 s; a [0.5, 2.5) outage pauses it for 2 s.
	l.Impair(0.5, 2.5, 0)
	start, end := l.TransferAttempts(0, 100, 1)
	if start != 0 || end != 3.0 {
		t.Fatalf("outage transfer = [%v, %v], want [0, 3]", start, end)
	}
	// A transfer enqueued inside the outage waits for the window to close.
	l2 := NewLink(100, 0)
	l2.Impair(1, 2, 0)
	_, end2 := l2.TransferAttempts(1.5, 100, 1)
	if end2 != 3.0 {
		t.Fatalf("queued-in-outage transfer end = %v, want 3", end2)
	}
}

// TestImpairPiecewise: a transfer spanning a degradation window pays the
// degraded rate only inside the window.
func TestImpairPiecewise(t *testing.T) {
	l := NewLink(100, 0)
	l.Impair(1, 2, 0.5)
	// 200 B: 100 B in [0,1) at full rate, 50 B in [1,2) at half rate,
	// 50 B in [2, 2.5) at full rate.
	_, end := l.TransferAttempts(0, 200, 1)
	if end != 2.5 {
		t.Fatalf("piecewise transfer end = %v, want 2.5", end)
	}
}

// TestImpairCompound: overlapping windows multiply their scales.
func TestImpairCompound(t *testing.T) {
	l := NewLink(100, 0)
	l.Impair(0, math.Inf(1), 0.5)
	l.Impair(0, math.Inf(1), 0.5)
	_, end := l.TransferAttempts(0, 100, 1)
	if end != 4.0 {
		t.Fatalf("compound degraded end = %v, want 4.0", end)
	}
}

// TestResetClearsImpairments: round-start resets drop the previous round's
// fault windows.
func TestResetClearsImpairments(t *testing.T) {
	l := NewLink(100, 0)
	l.Impair(0, 100, 0.5)
	l.ResetAt(10)
	_, end := l.TransferAttempts(10, 100, 1)
	if end != 11.0 {
		t.Fatalf("post-reset transfer end = %v, want 11 (impairment must be gone)", end)
	}
}

// TestTransferAttempts: failed attempts occupy full airtime, are charged, and
// counted as retries.
func TestTransferAttempts(t *testing.T) {
	l := NewLink(100, 0.5)
	start, end := l.TransferAttempts(0, 100, 3)
	if start != 0 {
		t.Fatalf("start = %v, want 0", start)
	}
	if end != 4.5 { // 3 × (0.5 latency + 1 s airtime)
		t.Fatalf("end = %v, want 4.5", end)
	}
	if l.BytesSent() != 300 || l.Retries() != 2 {
		t.Fatalf("accounting = %v bytes / %d retries, want 300/2", l.BytesSent(), l.Retries())
	}
	// FIFO: the next transfer queues behind the retransmissions.
	s2, _ := l.TransferAttempts(1, 10, 1)
	if s2 != 4.5 {
		t.Fatalf("queued start = %v, want 4.5", s2)
	}
}

// TestTransferUnchangedWithoutImpairments pins that the fault-capable service
// path is bit-identical to the original latency + bytes/bandwidth formula.
func TestTransferUnchangedWithoutImpairments(t *testing.T) {
	l := NewLink(13.7e6/8, 0.05)
	var free float64
	for i := 0; i < 50; i++ {
		bytes := float64(i) * 1234.567
		enq := float64(i) * 0.9
		start, end := l.TransferAttempts(enq, bytes, 1)
		wantStart := enq
		if free > wantStart {
			wantStart = free
		}
		want := wantStart + l.Latency + bytes/l.Bandwidth
		if start != wantStart || end != want {
			t.Fatalf("transfer %d: got [%v, %v], want [%v, %v]", i, start, end, wantStart, want)
		}
		free = end
	}
}

func TestImpairPanics(t *testing.T) {
	l := NewLink(100, 0)
	for _, f := range []func(){
		func() { l.Impair(0, 1, -0.1) },
		func() { l.Impair(0, 1, 1.5) },
		func() { l.Impair(2, 1, 0.5) },
		func() { l.Impair(0, math.Inf(1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on invalid impairment")
				}
			}()
			f()
		}()
	}
}
