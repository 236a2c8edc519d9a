package fedca_test

import (
	"fmt"
	"testing"

	fedca "fedca"
)

// equivalenceBase is the federation every equivalence row runs: spec keys
// over the zero Options, as a run log's header would hold them.
const equivalenceBase = "model=cnn;geometry=tiny;seed=42;clients=6;iters=10;batch=16;train=600;test=200;hetero=true;dynamic=true"

// equivalences are the pairs of runs the design claims equal, one row each:
// two spec overrides of equivalenceBase whose runs must agree bit for bit:
// every round's run-log record, the global model's digest included. A claim
// made under a condition names it in holds, which every round of both sides
// must meet, so that a row never passes by not exercising its claim.
var equivalences = []struct {
	name  string
	a, b  string
	holds func(fedca.Round) error
}{
	// FedCA with every client decision off is FedAvg: the profiling on
	// anchor rounds and the round deadline only observe; Fig. 9's v1/v2/v3
	// ablation measures against this baseline.
	{"fedca-all-off=fedavg",
		"scheme=fedca;fedca.earlystop=false;fedca.eager=false;fedca.retransmit=false;fedca.adaptivelr=false",
		"scheme=fedavg", nil},
	// Two cut fractions under the one fold schedule: 0.9 takes the whole
	// cohort too (⌈0.9·6⌉ = 6), so both fold the same updates, in
	// participant order, by the one arithmetic.
	{"aggfrac0.9=aggfrac1", "scheme=fedavg;aggfrac=0.9", "scheme=fedavg;aggfrac=1", func(r fedca.Round) error {
		if cohort := r.Collected + r.Discarded; r.Collected != cohort {
			return fmt.Errorf("the cut collected %d of a cohort of %d", r.Collected, cohort)
		}
		return nil
	}},
	// SAFA only adds late updates to the mean; with none late it is FedAvg.
	{"safa=fedavg", "scheme=safa", "scheme=fedavg", func(r fedca.Round) error {
		if late := r.Discarded - r.Dropped; late != 0 {
			return fmt.Errorf("%d updates arrived after the cut", late)
		}
		return nil
	}},
	// FedCA-v2 is FedCA without the retransmission check (Fig. 9); when
	// FedCA's check fires on no layer, the two run the same rounds.
	{"fedca-v2=fedca", "scheme=fedca-v2", "scheme=fedca", func(r fedca.Round) error {
		if r.Retransmitted != 0 {
			return fmt.Errorf("%v layers retransmitted per client", r.Retransmitted)
		}
		return nil
	}},
}

// TestEquivalences runs both sides of every row for equivalenceRounds rounds.
func TestEquivalences(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	const equivalenceRounds = 12
	for _, row := range equivalences {
		t.Run(row.name, func(t *testing.T) {
			a, b := federation(t, row.a), federation(t, row.b)
			for i := 0; i < equivalenceRounds; i++ {
				ra, rb := a.RunRound(), b.RunRound()
				if row.holds != nil {
					for _, side := range []struct {
						spec string
						r    fedca.Round
					}{{row.a, ra}, {row.b, rb}} {
						if err := row.holds(side.r); err != nil {
							t.Fatalf("round %d of %s: the row's condition fails: %v", i, side.spec, err)
						}
					}
				}
				if ra != rb {
					t.Fatalf("round %d differs:\n%s: %+v\n%s: %+v", i, row.a, ra, row.b, rb)
				}
			}
		})
	}
}

// federation builds equivalenceBase with the overrides spec.
func federation(t *testing.T, spec string) *fedca.Federation {
	t.Helper()
	var o fedca.Options
	if err := o.Set(equivalenceBase + ";" + spec); err != nil {
		t.Fatal(err)
	}
	f, err := fedca.New(o)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
