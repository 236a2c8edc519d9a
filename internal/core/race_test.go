package core_test

import (
	"runtime"
	"sync"
	"testing"

	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/rng"
	"fedca/internal/trace"
)

// TestStatsPollingDuringRound polls the runner's Stats from a second
// goroutine while rounds, anchor rounds included, execute. Run under -race
// this catches any fold field written outside the runner's lock.
func TestStatsPollingDuringRound(t *testing.T) {
	w := tinyWorkload()
	tb := expcfg.Build(w, 8, trace.Config{}, 80)
	s := core.NewScheme(fedcaOpts(w.FL.LocalIters), rng.New(81))
	r, err := tb.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = r.Stats()
			runtime.Gosched()
		}
	}()
	for i := 0; i < 4; i++ { // rounds 0 and 3 are anchors (period 3)
		r.RunRound()
	}
	close(done)
	wg.Wait()
	if st := r.Stats(); st.AnchorRounds == 0 {
		t.Fatal("expected anchor client-rounds to be counted")
	}
}
