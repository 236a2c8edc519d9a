package fedca_test

import (
	"math"
	"reflect"
	"testing"

	fedca "fedca"
	"fedca/internal/core"
)

func tinyOpts() fedca.Options {
	o := fedca.DefaultOptions()
	o.Clients = 4
	o.LocalIters = 8
	o.BatchSize = 8
	o.TrainSamples = 256
	o.TestSamples = 128
	return o
}

func TestFacadeDefaults(t *testing.T) {
	o := fedca.DefaultOptions()
	if o.Model != "cnn" || o.Scheme != "fedca" || o.Alpha != 0.1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestFacadeRunRound(t *testing.T) {
	f, err := fedca.New(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := f.RunRound()
	if r.Index != 0 || r.End <= r.Start || r.Collected == 0 {
		t.Fatalf("round = %+v", r)
	}
	if f.Now() != r.End {
		t.Fatalf("Now = %v, want %v", f.Now(), r.End)
	}
	if f.Accuracy() != r.Accuracy {
		t.Fatal("Accuracy mismatch")
	}
	if got := f.Rounds(); len(got) != 1 || got[0] != r {
		t.Fatalf("Rounds() = %+v", got)
	}
}

func TestFacadeAllSchemes(t *testing.T) {
	for _, scheme := range []string{"fedavg", "fedprox", "fedada", "fedca", "fedca-v1", "fedca-v2", "oort", "safa"} {
		o := tinyOpts()
		o.Scheme = scheme
		f, err := fedca.New(o)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		rs := f.Run(2)
		if len(rs) != 2 {
			t.Fatalf("%s: %d rounds", scheme, len(rs))
		}
		_, ok := f.FedCAStats()
		wantStats := scheme == "fedca" || scheme == "fedca-v1" || scheme == "fedca-v2"
		if ok != wantStats {
			t.Fatalf("%s: FedCAStats ok = %v", scheme, ok)
		}
	}
}

func TestFacadeAllModels(t *testing.T) {
	for _, model := range []string{"cnn", "lstm", "wrn"} {
		o := tinyOpts()
		o.Model = model
		o.Scheme = "fedavg"
		f, err := fedca.New(o)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if r := f.RunRound(); r.Collected == 0 {
			t.Fatalf("%s: empty round", model)
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	o := tinyOpts()
	o.Model = "transformer"
	if _, err := fedca.New(o); err == nil {
		t.Fatal("unknown model must error")
	}
	o = tinyOpts()
	o.Scheme = "magic"
	if _, err := fedca.New(o); err == nil {
		t.Fatal("unknown scheme must error")
	}
	o = tinyOpts()
	o.Clients = 0
	if _, err := fedca.New(o); err == nil {
		t.Fatal("zero clients must error")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() []fedca.Round {
		f, err := fedca.New(tinyOpts())
		if err != nil {
			t.Fatal(err)
		}
		return f.Run(3)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFacadeRunToAccuracy(t *testing.T) {
	o := tinyOpts()
	o.Scheme = "fedavg"
	o.LocalIters = 12
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	c := f.RunToAccuracy(0.5, 30)
	if c.Rounds == 0 || c.TotalSeconds <= 0 {
		t.Fatalf("convergence = %+v", c)
	}
	if c.Reached && c.BestAccuracy < 0.5 {
		t.Fatalf("reached but best = %v", c.BestAccuracy)
	}
}

func TestFacadeCompression(t *testing.T) {
	o := tinyOpts()
	o.Scheme = "fedavg"
	o.Compress = "qsgd7"
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	f.RunRound()
	o.Compress = "zip"
	if _, err := fedca.New(o); err == nil {
		t.Fatal("bad compressor spec must error")
	}
}

func TestFacadeDropout(t *testing.T) {
	o := tinyOpts()
	o.Chaos = "drop=0.5"
	o.Scheme = "fedavg"
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for i := 0; i < 4; i++ {
		drops += f.RunRound().Dropped
	}
	if drops == 0 {
		t.Fatal("no dropouts at p=0.5")
	}
}

func TestFacadeFedCAActsAfterAnchor(t *testing.T) {
	o := tinyOpts()
	o.FedCA.K = o.LocalIters
	o.FedCA.ProfilePeriod = 3
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(4)
	st, ok := f.FedCAStats()
	if !ok {
		t.Fatal("stats missing")
	}
	if st.AnchorRounds == 0 {
		t.Fatal("no anchor rounds recorded")
	}
}

func TestFacadeChaosSpec(t *testing.T) {
	o := tinyOpts()
	o.Scheme = "fedavg"
	o.Chaos = "drop=0.3,slow=0.4,degrade=0.3,outage=0.2,xfail=0.2,corrupt=0.3"
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f.RunRound()
	}
	st := f.DegradationStats()
	if st.Rounds != 4 {
		t.Fatalf("stats.Rounds = %d, want 4", st.Rounds)
	}
	if st.DroppedRounds == 0 && st.Quarantined == 0 && st.LinkRetries == 0 {
		t.Fatalf("chaos spec injected nothing observable: %+v", st)
	}
	// Replay with the same seed: the facade must reproduce the run exactly.
	g, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		g.RunRound()
	}
	if !reflect.DeepEqual(f.DegradationStats(), g.DegradationStats()) {
		t.Fatalf("chaos runs diverged: %+v vs %+v", f.DegradationStats(), g.DegradationStats())
	}
	if f.Accuracy() != g.Accuracy() {
		t.Fatalf("accuracy diverged: %v vs %v", f.Accuracy(), g.Accuracy())
	}
}

func TestFacadeChaosSpecErrors(t *testing.T) {
	for _, spec := range []string{"drop=2", "bogus=1", "drop"} {
		o := tinyOpts()
		o.Chaos = spec
		if _, err := fedca.New(o); err == nil {
			t.Fatalf("spec %q must be rejected", spec)
		}
	}
}

func TestFacadeMinQuorumSkip(t *testing.T) {
	o := tinyOpts()
	o.Scheme = "fedavg"
	o.MinQuorum = o.Clients + 1 // unreachable: every round skips
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	r := f.RunRound()
	if !r.Skipped {
		t.Fatal("below-quorum round must surface Skipped through the facade")
	}
	if f.DegradationStats().SkippedRounds != 1 {
		t.Fatalf("stats = %+v, want 1 skipped round", f.DegradationStats())
	}
}

// TestFacadeMaxDeltaNormWithoutChaos: the absolute cap lowers the round's
// norm bound on its own, with no fault injection configured.
func TestFacadeMaxDeltaNormWithoutChaos(t *testing.T) {
	o := tinyOpts()
	o.Scheme = "fedavg"
	o.Clients = 3
	o.MaxDeltaNorm = 1e-9 // below any trained update's norm
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if r := f.RunRound(); !r.Skipped || r.Quarantined != 3 {
		t.Fatalf("round 0: skipped %v, quarantined %d; want skipped with all 3 updates quarantined", r.Skipped, r.Quarantined)
	}
}

// TestCollapseSpecStaysHealthy: the seed-42 LSTM chaos run whose round-16
// update explodes (finite, so no per-coordinate test sees it) must quarantine
// that update with no norm cap configured, instead of folding it and falling
// from 0.785 to 0.128 accuracy.
func TestCollapseSpecStaysHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("17 LSTM rounds")
	}
	// fedca-sim's run defaults, under the spec.
	o := fedca.Options{Heterogeneous: true, Dynamic: true}
	if err := o.Set("model=lstm;scheme=fedavg;seed=42;clients=16;iters=40;batch=32;train=4096;test=1024;aggfrac=0.9;chaos=drop=0.1,slow=0.3,degrade=0.2,xfail=0.02,corrupt=0.01"); err != nil {
		t.Fatal(err)
	}
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	r := f.Run(17)[16]
	if r.Quarantined < 1 || r.Accuracy < 0.7 {
		t.Fatalf("round 16: quarantined %d, accuracy %.4f; want the exploded update quarantined and accuracy >= 0.7", r.Quarantined, r.Accuracy)
	}
}

// TestFacadeRejectsOutOfRangeOptions: a value outside the bounds of the
// options' text form is a construction error, never a crash and never
// silently replaced by the workload's default.
func TestFacadeRejectsOutOfRangeOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(o *fedca.Options)
	}{
		{"alpha+Inf", func(o *fedca.Options) { o.Alpha = math.Inf(1) }},
		{"alphaNaN", func(o *fedca.Options) { o.Alpha = math.NaN() }},
		{"alpha-1", func(o *fedca.Options) { o.Alpha = -1 }},
		{"modelbytesNaN", func(o *fedca.Options) { o.ModelBytes = math.NaN() }},
		{"modelbytes-1", func(o *fedca.Options) { o.ModelBytes = -1 }},
		{"aggfracNaN", func(o *fedca.Options) { o.AggregateFraction = math.NaN() }},
		{"aggfrac-0.5", func(o *fedca.Options) { o.AggregateFraction = -0.5 }},
		{"train-5", func(o *fedca.Options) { o.TrainSamples = -5 }},
		{"test-5", func(o *fedca.Options) { o.TestSamples = -5 }},
		{"iters-3", func(o *fedca.Options) { o.LocalIters = -3 }},
		{"batch-1", func(o *fedca.Options) { o.BatchSize = -1 }},
		{"fleet-1", func(o *fedca.Options) { o.Fleet = -1 }},
		{"quorum-1", func(o *fedca.Options) { o.MinQuorum = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := fedca.DefaultOptions()
			o.Clients, o.LocalIters, o.TrainSamples, o.TestSamples = 3, 2, 96, 32
			tc.edit(&o)
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("New panicked: %v", p)
					}
				}()
				_, err = fedca.New(o)
				return err
			}()
			if err == nil {
				t.Fatal("New accepted an out-of-range value")
			}
		})
	}
}

// TestSpecFedCAKeyChangesTheRun: fedca.te set through a spec onto options
// whose FedCA hyperparameters are the zero value (the defaults) reaches the
// scheme, instead of being dropped with the zero value's K.
func TestSpecFedCAKeyChangesTheRun(t *testing.T) {
	checksum := func(spec string) string {
		o := tinyOpts()
		o.FedCA = core.Options{}
		if err := o.Set(spec); err != nil {
			t.Fatal(err)
		}
		f, err := fedca.New(o)
		if err != nil {
			t.Fatal(err)
		}
		f.Run(3)
		return f.ParamsChecksum()
	}
	if checksum("") == checksum("fedca.te=0.5") {
		t.Fatal("fedca.te=0.5 did not change the run")
	}
}
