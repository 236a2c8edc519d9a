package chaos

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func fullConfig() Config {
	return Config{
		DropProb:     0.3,
		SlowProb:     0.5,
		DegradeProb:  0.4,
		OutageProb:   0.3,
		XferFailProb: 0.2,
		CorruptProb:  0.5,
	}
}

// planFingerprint strips the plan's private RNG state but captures the
// observable schedule, including the full per-transfer failure stream and the
// corruption it would apply.
type planFingerprint struct {
	Drop     int
	Slow     IterWindow
	Up, Down []LinkWindow
	Corrupt  Corruption
	Attempts [16]int
	Poisoned []float64
}

func fingerprint(p *Plan) planFingerprint {
	fp := planFingerprint{
		Drop: p.DropIter(), Slow: p.Slow, Up: p.Up, Down: p.Down, Corrupt: p.Corrupt,
	}
	for i := range fp.Attempts {
		fp.Attempts[i] = p.Attempts()
	}
	fp.Poisoned = make([]float64, 64)
	for i := range fp.Poisoned {
		fp.Poisoned[i] = float64(i + 1)
	}
	p.CorruptDelta(fp.Poisoned)
	return fp
}

func equalFingerprint(a, b planFingerprint) bool {
	// NaN-poisoned deltas defeat reflect.DeepEqual's == on floats.
	if len(a.Poisoned) != len(b.Poisoned) {
		return false
	}
	for i := range a.Poisoned {
		x, y := a.Poisoned[i], b.Poisoned[i]
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	a.Poisoned, b.Poisoned = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestPlanDeterministic: equal (seed, client, round) yields an identical
// schedule regardless of invocation order or goroutine, and different cells
// decorrelate.
func TestPlanDeterministic(t *testing.T) {
	e, err := NewEngine(fullConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	const clients, rounds = 8, 12
	type key struct{ c, r int }
	serial := make(map[key]planFingerprint)
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			serial[key{c, r}] = fingerprint(e.Plan(c, r, 50, 0.1))
		}
	}

	// Recompute every cell concurrently, in reverse order per goroutine.
	var wg sync.WaitGroup
	var mu sync.Mutex
	mismatch := ""
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := rounds - 1; r >= 0; r-- {
				got := fingerprint(e.Plan(c, r, 50, 0.1))
				if !equalFingerprint(got, serial[key{c, r}]) {
					mu.Lock()
					mismatch = "plan differs for client/round across invocation order"
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if mismatch != "" {
		t.Fatal(mismatch)
	}

	// A different seed must produce a different overall schedule.
	e2, _ := NewEngine(fullConfig(), 43)
	same := 0
	for k, fp := range serial {
		if equalFingerprint(fingerprint(e2.Plan(k.c, k.r, 50, 0.1)), fp) {
			same++
		}
	}
	if same == len(serial) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestPlanShapes checks every fault class appears with roughly its configured
// frequency and within its configured bounds.
func TestPlanShapes(t *testing.T) {
	e, err := NewEngine(fullConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const n, budget = 2000, 40
	var drops, slows, degrades, outages, corrupts, retries int
	for i := 0; i < n; i++ {
		p := e.Plan(i, 1, budget, 0.1)
		if d := p.DropIter(); d != 0 {
			drops++
			if d < 1 || d > budget {
				t.Fatalf("drop iteration %d out of [1,%d]", d, budget)
			}
		}
		if p.Slow.Factor > 1 {
			slows++
			if p.Slow.From < 1 || p.Slow.To < p.Slow.From {
				t.Fatalf("bad slowdown window %+v", p.Slow)
			}
			if p.Slow.Factor < 2 || p.Slow.Factor > 6 {
				t.Fatalf("slowdown factor %v outside default U(2,6)", p.Slow.Factor)
			}
			if p.ComputeFactor(p.Slow.From) != p.Slow.Factor || p.ComputeFactor(p.Slow.From-1) != 1 {
				t.Fatal("ComputeFactor does not match the slow window")
			}
		}
		for _, w := range p.Up {
			if w.Scale == 0 {
				outages++
				if w.From < 0 || w.To <= w.From {
					t.Fatalf("bad outage window %+v", w)
				}
			} else {
				degrades++
				if w.Scale < 0.1 || w.Scale > 0.6 {
					t.Fatalf("degrade scale %v outside default U(0.1,0.6)", w.Scale)
				}
			}
		}
		if p.Corrupt != CorruptNone {
			corrupts++
		}
		for j := 0; j < 4; j++ {
			if a := p.Attempts(); a > 1 {
				retries++
				if a > 1+e.Config().XferMaxRetries {
					t.Fatalf("attempts %d exceeds retry cap", a)
				}
			}
		}
	}
	frac := func(k int) float64 { return float64(k) / n }
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"drop", frac(drops), 0.3},
		{"slow", frac(slows), 0.5},
		{"degrade", frac(degrades), 0.4},
		{"outage", frac(outages), 0.3},
		{"corrupt", frac(corrupts), 0.5},
		{"xfail", float64(retries) / (4 * n), 0.2},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 0.05 {
			t.Errorf("%s frequency = %.3f, want ≈ %.2f", c.name, c.got, c.want)
		}
	}
}

// TestNilPlanIsNoFaults: every Plan accessor must be nil-safe so consumers
// skip nil checks.
func TestNilPlanIsNoFaults(t *testing.T) {
	var p *Plan
	if p.DropIter() != 0 || p.ComputeFactor(3) != 1 || p.Attempts() != 1 || p.Active() {
		t.Fatal("nil plan must inject nothing")
	}
	d := []float64{1, 2}
	p.CorruptDelta(d)
	if d[0] != 1 || d[1] != 2 {
		t.Fatal("nil plan corrupted a delta")
	}
	var e *Engine
	if e.Plan(0, 0, 10, 0.1) != nil {
		t.Fatal("nil engine must plan nothing")
	}
}

func TestCorruptDelta(t *testing.T) {
	mk := func(kind Corruption) []float64 {
		p := &Plan{Corrupt: kind, explodeScale: 1e12}
		e, _ := NewEngine(fullConfig(), 3)
		full := e.Plan(0, 0, 10, 0.1)
		p.poison = full.poison
		d := make([]float64, 500)
		for i := range d {
			d[i] = 1
		}
		p.CorruptDelta(d)
		return d
	}
	countIf := func(d []float64, pred func(float64) bool) int {
		n := 0
		for _, v := range d {
			if pred(v) {
				n++
			}
		}
		return n
	}
	if n := countIf(mk(CorruptNaN), func(v float64) bool { return math.IsNaN(v) }); n < 1 {
		t.Fatal("NaN corruption left the delta finite")
	}
	if n := countIf(mk(CorruptInf), func(v float64) bool { return math.IsInf(v, 0) }); n < 1 {
		t.Fatal("Inf corruption left the delta finite")
	}
	if d := mk(CorruptExplode); d[0] != 1e12 || d[len(d)-1] != 1e12 {
		t.Fatal("Explode corruption did not scale the delta")
	}
	if d := mk(CorruptNone); d[0] != 1 {
		t.Fatal("CorruptNone modified the delta")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		check   func(Config) bool
	}{
		{"", false, func(c Config) bool { return !c.Enabled() }},
		{"none", false, func(c Config) bool { return !c.Enabled() }},
		{"drop=0.1", false, func(c Config) bool { return c.DropProb == 0.1 && c.Enabled() }},
		{"drop=0.1,slow=0.2,degrade=0.3,outage=0.05,xfail=0.02,corrupt=0.01", false, func(c Config) bool {
			return c.SlowProb == 0.2 && c.DegradeProb == 0.3 && c.OutageProb == 0.05 &&
				c.XferFailProb == 0.02 && c.CorruptProb == 0.01
		}},
		{"slow=0.5,slowfactor=3:4,slowfrac=0.5,retries=5,explode=1e6", false, func(c Config) bool {
			return c.SlowFactorLo == 3 && c.SlowFactorHi == 4 && c.SlowFrac == 0.5 &&
				c.XferMaxRetries == 5 && c.ExplodeScale == 1e6
		}},
		{" drop = 0.1 , corrupt = 0.2 ", false, func(c Config) bool { return c.DropProb == 0.1 && c.CorruptProb == 0.2 }},
		{"drop=1.5", true, nil},
		{"drop", true, nil},
		{"bogus=1", true, nil},
		{"slowfactor=3", true, nil},
		{"slowfactor=0.5:4", true, nil}, // Validate rejects lo < 1
		{"scale=0:2", true, nil},
		{"drop=0.1,slowfrac=NaN", true, nil},
		{"drop=0.1,outagefrac=0.1:NaN", true, nil},
		// Non-finite shapes: an infinite slowdown never ends its window.
		{"slow=1,slowfactor=2:+Inf", true, nil},
		{"slow=1,slowfactor=Inf:Inf", true, nil},
		{"degrade=1,scale=0.5:Inf", true, nil},
		{"outage=1,outagefrac=0.1:+Inf", true, nil},
		{"outage=1,outagefrac=Inf:Inf", true, nil},
		{"corrupt=1,explode=+Inf", true, nil},
	}
	for _, tc := range cases {
		c, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", tc.spec, c)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if !tc.check(c) {
			t.Errorf("ParseSpec(%q) = %+v fails check", tc.spec, c)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"none", "drop=0.1", "drop=0.1,slow=0.2,degrade=0.3,outage=0.05,xfail=0.02,corrupt=0.01",
		"outage=0.1,xfail=0.1,retries=4", "drop=0.1,slowfactor=3:5,slowfrac=0.5,scale=0.2:0.3,outagefrac=0.1:0.2,explode=1e6"} {
		c, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		c2, err := ParseSpec(c.Spec())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", c.Spec(), err)
		}
		if c2 != c || c2.Spec() != c.Spec() {
			t.Fatalf("spec round trip %q → %+v → %q → %+v", spec, c, c.Spec(), c2)
		}
	}
}

// TestDrawIsolation: enabling one fault class must not shift another class's
// schedule (each class consumes its draws unconditionally).
func TestDrawIsolation(t *testing.T) {
	base := fullConfig()
	noDrop := base
	noDrop.DropProb = 0
	e1, _ := NewEngine(base, 11)
	e2, _ := NewEngine(noDrop, 11)
	for i := 0; i < 200; i++ {
		p1, p2 := e1.Plan(i, 2, 30, 0.1), e2.Plan(i, 2, 30, 0.1)
		if p1.Slow != p2.Slow || !reflect.DeepEqual(p1.Up, p2.Up) || p1.Corrupt != p2.Corrupt {
			t.Fatalf("client %d: disabling drop shifted other fault draws:\n%+v\nvs\n%+v", i, p1, p2)
		}
	}
}
