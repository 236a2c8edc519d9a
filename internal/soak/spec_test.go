package soak

import (
	"reflect"
	"strings"
	"testing"

	"fedca"
)

func TestParseScheduleDefault(t *testing.T) {
	phases, err := ParseSchedule(DefaultSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 4 {
		t.Fatalf("default schedule has %d phases, want 4", len(phases))
	}
	names := []string{"calm", "storm", "flaky-links", "poison"}
	for i, p := range phases {
		if p.Name != names[i] {
			t.Fatalf("phase %d named %q, want %q", i, p.Name, names[i])
		}
		r := p.Resolve(defaultBase())
		if err := r.validateResolved(); err != nil {
			t.Fatalf("default phase %q does not validate: %v", p.Name, err)
		}
	}
	if phases[1].run != "chaos=drop=0.2,slow=0.3,degrade=0.2;quorum=2" {
		t.Fatalf("run keys mangled: %q", phases[1].run)
	}
}

// TestPhaseSpecCanonicalRoundTrip: Spec() output reparsed and re-rendered is
// a fixed point, and reproduces the phase exactly — the property every
// report and run-log marker relies on. The run part is fully explicit, so
// the base run it is applied onto does not matter.
func TestPhaseSpecCanonicalRoundTrip(t *testing.T) {
	phases, err := ParseSchedule(DefaultSchedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range phases {
		resolved := p.Resolve(defaultBase())
		run, err := resolved.options(DefaultRun())
		if err != nil {
			t.Fatal(err)
		}
		run.Seed = 7
		spec := resolved.Spec(run)
		back, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("canonical spec does not reparse: %v\nspec: %s", err, spec)
		}
		if len(back) != 1 {
			t.Fatalf("canonical spec parsed into %d phases", len(back))
		}
		got := back[0].Resolve(defaultBase())
		for _, base := range []fedca.Options{DefaultRun(), {}} {
			gotRun, err := got.options(base)
			if err != nil {
				t.Fatal(err)
			}
			if got.Spec(gotRun) != spec {
				t.Fatalf("Spec not a fixed point:\n before: %s\n after:  %s", spec, got.Spec(gotRun))
			}
		}
		got.run, resolved.run = "", ""
		if !reflect.DeepEqual(got, resolved) {
			t.Fatalf("round-trip drift:\n before: %+v\n after:  %+v", resolved, got)
		}
	}
}

func TestParseScheduleRejects(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"rounds",                               // not key=value
		"rounds=",                              // empty value
		"rounds=0",                             // below minimum
		"rounds=1000001",                       // above maximum
		"rounds=NaN",                           // non-numeric int
		"alpha=Inf",                            // non-finite float
		"alpha=-1",                             // negative
		"chaos=drop=1.5",                       // probability above 1
		"maxnorm=nan",                          // NaN float field
		"clients=9999999999999999999",          // overflows int64
		"name=",                                // empty name
		"name=has spaces",                      // invalid name chars
		"name=" + strings.Repeat("x", 33),      // name too long
		"model=c;n",                            // field without '='
		"bogus=1",                              // unknown key
		"chaos=notakey=1",                      // invalid chaos spec
		"quarband=1",                           // band without ':'
		"quarband=2:1",                         // inverted band
		"quarband=-1:0",                        // negative band
		"quarband=0:1e99",                      // band over maxBandValue
		"quarband=0:Inf",                       // non-finite band
		"skipband=NaN:1",                       // NaN band
		strings.Repeat("name=a;", 3000),        // oversized spec
		strings.Repeat("name=a|", maxPhases+1), // too many phases
		"maxnorm=1e300\t",                      // trailing garbage in number? (tab trimmed, ok) — overflow bound
	}
	for _, spec := range cases {
		if phases, err := ParseSchedule(spec); err == nil {
			// A few cases above are actually valid after trimming; verify
			// they at least resolve+validate rather than slipping through
			// with garbage values.
			for _, p := range phases {
				if verr := p.Resolve(defaultBase()).validateResolved(); verr != nil {
					goto rejected
				}
			}
			if spec == "maxnorm=1e300\t" {
				continue // 1e300 < maxNormBound: legitimately accepted
			}
			t.Fatalf("spec %q accepted", spec)
		}
	rejected:
	}
}

func TestParseScheduleFieldOrderIrrelevant(t *testing.T) {
	a, err := ParseSchedule("rounds=5;name=x;quorum=2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSchedule("quorum=2;rounds=5;name=x")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("field order changed the parse: %+v vs %+v", a, b)
	}
}

func TestBandContains(t *testing.T) {
	b := Band{Lo: 0.1, Hi: 0.5}
	for _, tc := range []struct {
		v    float64
		want bool
	}{{0.1, true}, {0.5, true}, {0.3, true}, {0.0999, false}, {0.51, false}} {
		if got := b.Contains(tc.v); got != tc.want {
			t.Fatalf("Contains(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestResolveInheritsOnlyZeroFields(t *testing.T) {
	base := defaultBase()
	phases, err := ParseSchedule("name=x;rounds=9;quarband=0.1:0.2;clients=9;chaos=drop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	r := phases[0].Resolve(base)
	if r.Rounds != 9 || r.QuarBand != (Band{0.1, 0.2}) {
		t.Fatalf("explicit fields overwritten: %+v", r)
	}
	if r.SkipBand != base.SkipBand || r.RetryBand != base.RetryBand {
		t.Fatalf("zero fields not inherited: %+v", r)
	}
	run, err := r.options(DefaultRun())
	if err != nil {
		t.Fatal(err)
	}
	if run.Clients != 9 || run.Chaos != "drop=0.5" {
		t.Fatalf("run keys not applied: %+v", run)
	}
	if run.Model != DefaultRun().Model || run.LocalIters != DefaultRun().LocalIters {
		t.Fatalf("unset run values not kept from the base run: %+v", run)
	}
}
