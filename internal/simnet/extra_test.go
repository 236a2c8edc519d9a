package simnet

import "testing"

func TestNegativeTransferPanics(t *testing.T) {
	l := NewLink(100, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.TransferAttempts(0, -1, 1)
}

func TestResetAtAllowsEarlierEnqueue(t *testing.T) {
	l := NewLink(100, 0)
	l.TransferAttempts(50, 100, 1)
	l.ResetAt(10)
	// After reset the FIFO clock rewinds: enqueue at 10 is legal again.
	start, end := l.TransferAttempts(10, 100, 1)
	if start != 10 || end != 11 {
		t.Fatalf("post-reset transfer = %v..%v", start, end)
	}
	// Byte accounting survives resets.
	if l.BytesSent() != 200 {
		t.Fatalf("accounting lost on reset: %v bytes", l.BytesSent())
	}
}
