package expcfg

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fedca/internal/chaos"
	"fedca/internal/core"
	"fedca/internal/runlog"
)

// validBase is a runnable Options value for Set to apply specs onto.
func validBase() Options {
	return Options{Model: "cnn", Scheme: "fedca", Clients: 2}
}

// FuzzRunSpec feeds arbitrary specs to Options.Set. The guarantees under
// fuzz: Set never panics; whatever Set accepts onto a valid base passes the
// lowering's validation (one bounds table); String is a fixed point: Set of
// String, onto any base, writes the same text again; an accepted spec that
// sets compress finds its value in String exactly as written ("" is
// "none"), since compress.ByName accepts each compressor in one spelling
// only; and one that sets chaos finds in String a value that parses to the
// same chaos.Config as the written one, since the canonical form
// (chaos.Config.Spec) may only reorder and reformat the classes. The corpus
// starts from the soak's schedule corpus and every TestSimGolden header.
func FuzzRunSpec(f *testing.F) {
	soakCorpus, err := filepath.Glob(filepath.Join("..", "soak", "testdata", "fuzz", "FuzzSoakSpecParse", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range soakCorpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if quoted, ok := strings.CutPrefix(line, "string("); ok {
				spec, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					f.Fatalf("%s: %v", path, err)
				}
				f.Add(spec)
			}
		}
	}
	logs, err := filepath.Glob(filepath.Join("..", "..", "cmd", "fedca-sim", "testdata", "sim", "*.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	if len(soakCorpus) == 0 || len(logs) != 16 {
		f.Fatalf("corpus sources moved: %d soak corpus files, %d golden logs", len(soakCorpus), len(logs))
	}
	for _, path := range logs {
		run, err := runlog.Open(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(run.Header.Spec)
	}
	f.Add("fedca.te=0.5;iters=0")
	f.Add("alpha=Inf;modelbytes=NaN;aggfrac=-0;quorum=-1")
	f.Add("compress=topk0.07;chaos=slowfrac=NaN,drop=0.1,retries=9")
	f.Add(" Compress = topk1 ;compress=")
	f.Add("COMPRESS=qsgd7")
	f.Add("chaos=corrupt=0.01, XFAIL=0.2,drop=0.1")
	f.Add("chaos=drop=0")
	f.Add("chaos=drop=0.1,slowfrac=0.5,drop=0.3")
	f.Add("chaos=slow=1,slowfactor=2:+Inf")
	f.Add("chaos=outage=1,outagefrac=0.1:Inf;clients=2")
	f.Add("chaos=corrupt=1,explode=-Inf")
	f.Fuzz(func(t *testing.T, spec string) {
		o := validBase()
		if err := o.Set(spec); err != nil {
			return // rejected input: only guarantee is no panic
		}
		if err := o.validate(); err != nil {
			t.Fatalf("Set accepted %q but the lowering rejects it: %v", spec, err)
		}
		canon := o.String()
		if written, ok := lastValue(spec, "compress"); ok {
			if written == "" {
				written = "none"
			}
			if got, _ := lastValue(canon, "compress"); got != written {
				t.Fatalf("compress written %q, canonical %q", written, got)
			}
		}
		if written, ok := lastValue(spec, "chaos"); ok {
			got, _ := lastValue(canon, "chaos")
			wc, werr := chaos.ParseSpec(written)
			gc, gerr := chaos.ParseSpec(got)
			if werr != nil || gerr != nil || wc != gc {
				t.Fatalf("chaos written %q parses to %+v (%v), canonical %q to %+v (%v)", written, wc, werr, got, gc, gerr)
			}
		}
		for _, base := range []Options{{}, validBase()} {
			if err := base.Set(canon); err != nil {
				t.Fatalf("canonical form does not parse: %v\ncanon: %q", err, canon)
			}
			if got := base.String(); got != canon {
				t.Fatalf("String not a fixed point:\n before: %q\n after:  %q", canon, got)
			}
		}
	})
}

// lastValue returns the value the last key=value field of spec gives key,
// read as Set reads it.
func lastValue(spec, key string) (val string, ok bool) {
	for _, kv := range strings.Split(spec, ";") {
		if k, v, found := strings.Cut(kv, "="); found && strings.ToLower(strings.TrimSpace(k)) == key {
			val, ok = strings.TrimSpace(v), true
		}
	}
	return val, ok
}

// TestSpecRoundTrip checks the text form on values in use today: every
// field set, from the defaults and from the zero FedCA hyperparameters.
func TestSpecRoundTrip(t *testing.T) {
	full := Options{
		Model: "wrn", Geometry: "tiny", Clients: 7, Fleet: 1_000_000, Participation: 0.01,
		AggregateFraction: 1, Scheme: "oort", Seed: 1<<64 - 1, DType: "f32",
		LocalIters: 125, BatchSize: 50, TrainSamples: 16384, TestSamples: 2048, Alpha: 0.1,
		Compress: "topk7", ModelBytes: 139.4e6, Heterogeneous: true,
		Chaos: "corrupt=0.01,drop=0.1,retries=4", MinQuorum: 3, MaxDeltaNorm: 1e6,
		FedCA: core.DefaultOptions(125),
	}
	full.FedCA.Te, full.FedCA.ProfilePeriod, full.FedCA.AdaptiveLR = 0.7, 5, true
	for _, o := range []Options{full, {Model: "cnn", Scheme: "fedca", Clients: 1}} {
		if err := o.validate(); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		var back Options
		if err := back.Set(o.String()); err != nil {
			t.Fatal(err)
		}
		if back.String() != o.String() {
			t.Fatalf("round trip:\n %s\n %s", o.String(), back.String())
		}
		if o.Telemetry != nil || strings.Contains(o.String(), "telemetry") {
			t.Fatal("the text form names an observer")
		}
	}
	s := full.String()
	for _, want := range []string{"v=2;model=wrn;geometry=tiny;", ";fleet=1000000;", ";seed=18446744073709551615;",
		";compress=topk7;", ";chaos=drop=0.1,corrupt=0.01,retries=4;", ";fedca.te=0.7;", ";fedca.adaptivelr=true"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing from %s", want, s)
		}
	}
	if strings.Contains(s, "fedca.k=") {
		t.Fatal("K is a key; the scheme takes it from iters")
	}
}

func TestSetRejects(t *testing.T) {
	for _, spec := range []string{
		"v=1", "v=3", "bogus=1", "model", "model=transformer", "scheme=has space", "geometry=huge",
		"dtype=f16", "compress=zip", "compress=topk1abc", "compress=topkNaN", "compress=qsgd7x", "chaos=drop=2",
		"compress=qsgd+7", "compress=qsgd07", "compress=topk+1", "compress=topk01", "compress=topk1e0",
		"compress=topk0x1p0", "compress=topk0.50",
		"clients=-1", "clients=65537", "fleet=-1", "participation=1.5", "iters=-3",
		"train=-5", "alpha=Inf", "alpha=NaN", "aggfrac=NaN", "modelbytes=NaN", "quorum=-1",
		"maxnorm=1e31", "seed=-1", "hetero=maybe", "fedca.te=2", "fedca.deadlinequantile=-0.1",
		"fedca.samplefrac=0.5", "fedca.miniterations=1", "fedca.lrdecayat=0",
		strings.Repeat("iters=1;", 2000),
	} {
		o := validBase()
		if err := o.Set(spec); err == nil {
			t.Fatalf("Set(%q) accepted", spec)
		}
		if o != validBase() {
			t.Fatalf("rejected Set(%q) changed the options: %+v", spec, o)
		}
	}
}

// TestSetFedCAKeysEditTheDefaults: a fedca.* key applied to the zero FedCA
// hyperparameters edits the defaults they stand for, instead of leaving K
// zero for SchemeByName to replace them all.
func TestSetFedCAKeysEditTheDefaults(t *testing.T) {
	o := validBase()
	if err := o.Set("iters=20;fedca.te=0.5"); err != nil {
		t.Fatal(err)
	}
	want := core.DefaultOptions(20)
	want.Te = 0.5
	if o.FedCA.K == 0 || o.FedCA.Te != 0.5 || o.FedCA.Tr != want.Tr || o.FedCA.ProfilePeriod != want.ProfilePeriod {
		t.Fatalf("FedCA = %+v, want the defaults with Te 0.5", o.FedCA)
	}
}

// TestValidateRejectsWhatSetRejects: the lowering validates through the text
// form, so a string value Set would refuse is refused even when it smuggles
// in a ';' that would otherwise read as further keys.
func TestValidateRejectsWhatSetRejects(t *testing.T) {
	for _, edit := range []func(o *Options){
		func(o *Options) { o.Geometry = "tiny;seed=1" },
		func(o *Options) { o.Chaos = "drop=0.1;clients=3" },
		func(o *Options) { o.DType = "f16" },
		func(o *Options) { o.Model = "cnn;model=lstm" },
	} {
		o := validBase()
		edit(&o)
		if err := o.validate(); err == nil {
			t.Fatalf("validate accepted %q", o.String())
		}
	}
}
