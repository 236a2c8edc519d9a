package soak

import "testing"

// TestHeapMonitorSlope: a live heap that stays flat never fires, however
// large; one that keeps growing fires once, on the first phase whose
// post-warmup samples rise past minHeapRise at a slope above maxHeapSlope.
func TestHeapMonitorSlope(t *testing.T) {
	phase := func(idx int, heap uint64) PhaseResult {
		return PhaseResult{
			PhaseInfo: PhaseInfo{Name: "p", Index: idx, StartRound: idx * 10, Rounds: 10},
			HeapBytes: heap,
		}
	}
	flat := &heapMonitor{}
	for i := 0; i < 10; i++ {
		if v := flat.PhaseEnd(phase(i, 1<<30)); len(v) != 0 {
			t.Fatalf("flat heap fired: %+v", v)
		}
	}
	// 4 MiB a phase of 10 rounds is far above the slope bound; the rise
	// past the warmup samples first exceeds 16 MiB at phase 7.
	growing := &heapMonitor{}
	for i := 0; i < 10; i++ {
		v := growing.PhaseEnd(phase(i, uint64(64+4*i)<<20))
		switch {
		case i == 7 && (len(v) != 1 || v[0].Monitor != "heap" || v[0].PhaseIndex != 7):
			t.Fatalf("phase 7 produced %+v, want one heap violation", v)
		case i != 7 && len(v) != 0:
			t.Fatalf("phase %d fired: %+v", i, v)
		}
	}
}
