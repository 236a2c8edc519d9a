package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdleTransfer(t *testing.T) {
	l := NewLink(1000, 0.1) // 1000 B/s, 100 ms latency
	start, end := l.TransferAttempts(5, 2000, 1)
	if start != 5 {
		t.Fatalf("start = %v, want 5", start)
	}
	if math.Abs(end-(5+0.1+2)) > 1e-12 {
		t.Fatalf("end = %v, want 7.1", end)
	}
}

func TestFIFOQueueing(t *testing.T) {
	l := NewLink(100, 0)
	_, end1 := l.TransferAttempts(0, 1000, 1) // busy until t=10
	start2, end2 := l.TransferAttempts(1, 500, 1)
	if start2 != end1 {
		t.Fatalf("second transfer must wait for the first: start %v, want %v", start2, end1)
	}
	if math.Abs(end2-15) > 1e-12 {
		t.Fatalf("end2 = %v, want 15", end2)
	}
}

func TestNoQueueWhenIdle(t *testing.T) {
	l := NewLink(100, 0)
	l.TransferAttempts(0, 100, 1) // done at 1
	start, _ := l.TransferAttempts(5, 100, 1)
	if start != 5 {
		t.Fatalf("idle link must start immediately: %v", start)
	}
}

func TestAccounting(t *testing.T) {
	l := NewLink(100, 0)
	l.TransferAttempts(0, 100, 1)
	l.TransferAttempts(0, 200, 1)
	if l.BytesSent() != 300 {
		t.Fatalf("accounting wrong: %v bytes", l.BytesSent())
	}
	if l.free != 3 {
		t.Fatalf("link free at %v, want 3", l.free)
	}
}

func TestDuration(t *testing.T) {
	l := NewLink(13.7e6/8, 0)
	// 1 MB over 13.7 Mbps ≈ 0.584 s.
	start, end := l.TransferAttempts(0, 1e6, 1)
	if d := end - start; math.Abs(d-8e6/13.7e6) > 1e-9 {
		t.Fatalf("duration = %v", d)
	}
}

func TestOutOfOrderEnqueuePanics(t *testing.T) {
	l := NewLink(100, 0)
	l.TransferAttempts(10, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.TransferAttempts(5, 1, 1)
}

func TestBadConstructionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewLink(0, 0) },
		func() { NewLink(-1, 0) },
		func() { NewLink(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: for any monotone sequence of enqueues, transfers never overlap
// and each starts no earlier than its enqueue time.
func TestTransferInvariants(t *testing.T) {
	f := func(sizes []uint16, gaps []uint16) bool {
		l := NewLink(1000, 0.01)
		now := 0.0
		prevEnd := 0.0
		n := len(sizes)
		if len(gaps) < n {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			now += float64(gaps[i]) / 100
			start, end := l.TransferAttempts(now, float64(sizes[i]), 1)
			if start < now || start < prevEnd || end < start {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
