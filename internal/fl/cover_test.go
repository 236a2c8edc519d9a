package fl_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"fedca/internal/cputok"
	"fedca/internal/execpool"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/trace"
)

// rendezvousScheme is FedAvg whose controllers meet once per round: each
// client's first iteration waits, up to a timeout, until a second client is
// training at the same time. met reports whether any two ever did.
type rendezvousScheme struct {
	mu     sync.Mutex
	active int
	met    bool
}

func (*rendezvousScheme) Name() string { return "rendezvous" }
func (*rendezvousScheme) PlanRound(int, *fl.History) fl.RoundPlan {
	return fl.RoundPlan{Deadline: fl.NoDeadline()}
}
func (s *rendezvousScheme) NewController(*fl.Client, int, fl.RoundPlan) fl.Controller {
	return &rendezvousCtrl{s: s}
}

type rendezvousCtrl struct {
	fl.NopController
	s       *rendezvousScheme
	started bool
}

func (c *rendezvousCtrl) AfterIteration(fl.IterState) fl.IterAction {
	if c.started {
		return fl.IterAction{}
	}
	c.started = true
	s := c.s
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.mu.Lock()
		if s.active >= 2 {
			s.met = true
		}
		met := s.met
		s.mu.Unlock()
		if met {
			break
		}
	}
	return fl.IterAction{}
}

func (c *rendezvousCtrl) Finalize(fl.FinalState) fl.FinalAction {
	c.s.mu.Lock()
	c.s.active--
	c.s.mu.Unlock()
	return fl.FinalAction{}
}

// TestLoneCellTrainsOnTwoWorkers: an execpool cell already holds its
// admission token, so a runner driven inside it must not take another — a
// lone cell at cap 2 still trains two clients at once.
func TestLoneCellTrainsOnTwoWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	budget := cputok.Default()
	defer budget.SetCap(budget.Setting())
	budget.SetCap(2)

	scheme := &rendezvousScheme{}
	pool := execpool.New(execpool.Options{Workers: 1})
	_, err := execpool.Do(pool, "cap-2", func() (int, error) {
		r, err := expcfg.Build(tinyWorkload(), 4, trace.Config{}, 3).NewRunner(scheme)
		if err != nil {
			return 0, err
		}
		r.RunRound()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.met {
		t.Fatal("no two clients trained at once: the cell's runner ran on one worker")
	}
}
