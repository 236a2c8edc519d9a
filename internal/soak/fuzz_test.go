package soak

import (
	"testing"

	"fedca"
)

// FuzzSoakSpecParse feeds arbitrary strings to the schedule parser. The
// guarantees under fuzz: no panic on any input; any accepted phase survives
// Resolve + validateResolved and its run keys apply onto the base run (the
// parser never lets NaN/Inf/overflow values through to a runnable phase);
// and the canonical render of an accepted, resolved phase is a fixed point
// (reparse + resolve + re-render is byte-identical, whatever base run the
// reparse applies onto), which is what makes report spec strings
// reproducible.
func FuzzSoakSpecParse(f *testing.F) {
	f.Add(DefaultSchedule)
	f.Add("name=calm;rounds=40")
	f.Add("name=storm;rounds=60;chaos=drop=0.2,slow=0.3,degrade=0.2;quorum=2")
	f.Add("name=x;rounds=2;model=cnn;scheme=fedca;clients=4;iters=4;batch=8;train=256;test=64;alpha=0.1;chaos=none;quorum=1;maxnorm=0;skipband=0:0.75;quarband=0:0.75;retryband=0:1e+06")
	f.Add("rounds=5|rounds=6|rounds=7")
	f.Add("name=p;chaos=outage=0.1,xfail=0.1,retries=4,slowfactor=3,corrupt=0.01")
	f.Add("alpha=1e-300;chaos=drop=0.9999999999")
	f.Add("quarband=0.9:1")
	f.Add("rounds=NaN")
	f.Add("alpha=Inf")
	f.Add("maxnorm=-0")
	f.Add("clients=99999999999999999999")
	f.Add("maxnorm=1e309")
	f.Add(";;;|;;;")
	f.Add("name=a;name=b;name=c")
	f.Add("chaos=drop=NaN")
	f.Add("CHAOS=DROP=0.1;Quorum=2")
	f.Fuzz(func(t *testing.T, spec string) {
		phases, err := ParseSchedule(spec)
		if err != nil {
			return // rejected input: only guarantee is no panic
		}
		base := defaultBase()
		for _, p := range phases {
			r := p.Resolve(base)
			if verr := r.validateResolved(); verr != nil {
				// With defaultBase every phase field is covered, so this only
				// fires for values the parser should have rejected.
				t.Fatalf("accepted phase fails validation after Resolve: %v\nphase: %+v\nspec: %q", verr, r, spec)
			}
			run, err := r.options(DefaultRun())
			if err != nil {
				t.Fatalf("accepted phase's run keys do not apply: %v\nspec: %q", err, spec)
			}
			canon := r.Spec(run)
			back, err := ParseSchedule(canon)
			if err != nil {
				t.Fatalf("canonical render does not reparse: %v\ncanon: %q", err, canon)
			}
			if len(back) != 1 {
				t.Fatalf("canonical render parsed into %d phases: %q", len(back), canon)
			}
			r2 := back[0].Resolve(base)
			run2, err := r2.options(fedca.Options{})
			if err != nil {
				t.Fatalf("canonical render's run keys do not apply: %v\ncanon: %q", err, canon)
			}
			if got := r2.Spec(run2); got != canon {
				t.Fatalf("canonical render not a fixed point:\n before: %q\n after:  %q", canon, got)
			}
		}
	})
}
