package fl_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fedca/internal/baseline"
	"fedca/internal/chaos"
	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
)

// observed is one call an observer received. A ClientRound keeps a copy of
// its update, Eager copied, since the walk clears the list after the call; a
// RoundDone keeps its record and its meta, Stages copied.
type observed struct {
	round  int
	start  float64
	update *fl.Update // nil for RoundDone
	rec    fl.RoundRecord
	meta   fl.RoundMeta
}

// recorder is an fl.Observer that keeps every call it receives.
type recorder struct{ calls []observed }

func (r *recorder) ClientRound(round int, start float64, u *fl.Update) {
	c := *u
	c.Eager = slices.Clone(u.Eager)
	r.calls = append(r.calls, observed{round: round, start: start, update: &c})
}

func (r *recorder) RoundDone(rec fl.RoundRecord, meta fl.RoundMeta) {
	meta.Stages = slices.Clone(meta.Stages)
	r.calls = append(r.calls, observed{rec: rec, meta: meta})
}

// replay hands the recorded calls, in order, to o.
func (r *recorder) replay(o fl.Observer) {
	for _, c := range r.calls {
		if c.update != nil {
			o.ClientRound(c.round, c.start, c.update)
		} else {
			o.RoundDone(c.rec, c.meta)
		}
	}
}

// TestObserverContract holds the record stage to the fl.Observer contract,
// on a FedCA run over a virtual fleet under dropout, transfer failure and
// corruption, with a recording fake and the real journal on one runner:
//   - each round, ClientRound reaches the fake once per client-round, in
//     observe's order — the result's Collected, then its Discarded — with
//     Update.Eager still set, and then RoundDone once, with the record the
//     round returned;
//   - the journal saw the same calls: replaying the fake's calls into a
//     fresh journal rebuilds its event stream and attribution table;
//   - RoundMeta holds what the journal's cohort event reported before the
//     meta existed: the fleet's size, the cohort's, and the fleet's slot
//     counts read before the cohort's slots went back;
//   - the per-round stage tables add up to the run's (Runner.StageTimes).
func TestObserverContract(t *testing.T) {
	w := tinyWorkload()
	w.FL.Participation = 0.5
	ccfg, err := chaos.ParseSpec("drop=0.2,xfail=0.3,corrupt=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if w.FL.Chaos, err = chaos.NewEngine(ccfg, 23); err != nil {
		t.Fatal(err)
	}
	fake, journal := &recorder{}, telemetry.NewJournal(1<<14)
	w.FL.Observers = []fl.Observer{fake, journal}
	opt := core.DefaultOptions(w.FL.LocalIters)
	opt.ProfilePeriod = 2
	scheme, err := expcfg.SchemeByName("fedca", &w.FL, opt, 23)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := expcfg.BuildFleet(w, 12, 0, trace.PaperConfig(), 23)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tb.NewRunner(scheme)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	var eager, dropped, quarantined int
	var lastRecycled int64
	for i := 0; i < rounds; i++ {
		from := len(fake.calls)
		res := r.RunRound()
		calls := fake.calls[from:]
		walk := append(slices.Clone(res.Collected), res.Discarded...)
		if len(calls) != len(walk)+1 {
			t.Fatalf("round %d: %d observer calls for %d client-rounds; want one each, then RoundDone", i, len(calls), len(walk))
		}
		for k, u := range walk {
			c := calls[k]
			if c.update == nil {
				t.Fatalf("round %d: call %d is RoundDone before the walk's end", i, k)
			}
			if c.round != i || c.start != res.Start || c.update.ClientID != u.ClientID {
				t.Fatalf("round %d: call %d saw client %d of round %d (start %v); observe's order has client %d (start %v)",
					i, k, c.update.ClientID, c.round, c.start, u.ClientID, res.Start)
			}
			if len(c.update.Eager) != u.EagerSent {
				t.Fatalf("round %d: client %d arrived with %d eager records, sent %d", i, u.ClientID, len(c.update.Eager), u.EagerSent)
			}
			if u.Eager != nil {
				t.Fatalf("round %d: client %d's Eager survived the walk", i, u.ClientID)
			}
			eager += u.EagerSent
			if u.Dropped {
				dropped++
			}
			if u.Quarantined {
				quarantined++
			}
		}
		done := calls[len(calls)-1]
		if done.update != nil || done.rec != res.RoundRecord {
			t.Fatalf("round %d: the last call is not RoundDone with the round's record: %+v", i, done)
		}
		made, recycled := tb.Fleet.SlotStats()
		m := done.meta
		if m.Fleet != tb.Fleet.Size() || m.Cohort != len(walk) || m.Materialized != made ||
			m.Recycled != lastRecycled || recycled != lastRecycled+int64(len(walk)) {
			t.Fatalf("round %d: meta %+v; the fleet has %d clients, the cohort %d, %d slots built, %d recycled before the round, %d after",
				i, m, tb.Fleet.Size(), len(walk), made, lastRecycled, recycled)
		}
		lastRecycled = recycled
	}
	if eager == 0 || dropped == 0 || quarantined == 0 {
		t.Fatalf("run sent %d eager layers, dropped %d and quarantined %d client-rounds; the contract needs all three (seed-dependent: adjust the seed)",
			eager, dropped, quarantined)
	}

	var got, want bytes.Buffer
	if _, err := journal.WriteSince(&got, 0); err != nil {
		t.Fatal(err)
	}
	replayed := telemetry.NewJournal(1 << 14)
	fake.replay(replayed)
	if _, err := replayed.WriteSince(&want, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the journal saw other calls than the fake:\n--- journal ---\n%s\n--- fake replayed ---\n%s", got.Bytes(), want.Bytes())
	}
	if !strings.Contains(got.String(), `"type":"cohort"`) {
		t.Fatal("the journal recorded no cohort event")
	}
	a, _ := journal.Clients().TopK(0, "compute")
	b, _ := replayed.Clients().TopK(0, "compute")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("attribution tables differ:\n%+v\n%+v", a, b)
	}

	stages := r.StageTimes()
	ran := make([]int, len(stages))
	for _, c := range fake.calls {
		if c.update != nil {
			continue
		}
		if len(c.meta.Stages) != len(stages) {
			t.Fatalf("a round's stage table has %d rows; the run's has %d", len(c.meta.Stages), len(stages))
		}
		for s, st := range c.meta.Stages {
			if st.Stage != stages[s].Stage || st.Rounds > 1 || st.Rounds == 0 && st.Seconds != 0 {
				t.Fatalf("round stage row %d = %+v; the run's is %+v", s, st, stages[s])
			}
			ran[s] += st.Rounds
		}
	}
	for s, st := range stages {
		if ran[s] != st.Rounds {
			t.Fatalf("stage %s: the rounds' tables ran it %d times, the run's table %d", st.Stage, ran[s], st.Rounds)
		}
	}
}

// TestNewFleetRunnerRejectsObservers: a nil observer, and a second one that
// watches the workers, are construction errors.
func TestNewFleetRunnerRejectsObservers(t *testing.T) {
	for name, obs := range map[string][]fl.Observer{
		"nil":              {telemetry.NewJournal(0), nil},
		"two-worker-sinks": {telemetry.New(), telemetry.NewJournal(0), telemetry.New()},
	} {
		w := tinyWorkload()
		w.FL.Observers = obs
		if _, err := expcfg.Build(w, 2, trace.Config{}, 3).NewRunner(baseline.FedAvg{}); err == nil {
			t.Errorf("%s: NewFleetRunner accepted observers %v", name, obs)
		}
	}
}
