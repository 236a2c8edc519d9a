package fedca_test

import (
	"testing"

	fedca "fedca"
)

// equivalenceBase is the federation every equivalence row runs: spec keys
// over the zero Options, as a run log's header would hold them.
const equivalenceBase = "model=cnn;geometry=tiny;seed=42;clients=6;iters=10;batch=16;train=600;test=200;hetero=true;dynamic=true"

// equivalences are the pairs of runs the design claims equal, one row each:
// two spec overrides of equivalenceBase whose runs must agree bit for bit:
// every round's run-log record, the global model's digest included.
var equivalences = []struct {
	name string
	a, b string
}{
	// FedCA with every client decision off is FedAvg: the profiling on
	// anchor rounds and the round deadline only observe; Fig. 9's v1/v2/v3
	// ablation measures against this baseline.
	{"fedca-all-off=fedavg",
		"scheme=fedca;fedca.earlystop=false;fedca.eager=false;fedca.retransmit=false;fedca.adaptivelr=false",
		"scheme=fedavg"},
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
				if ra, rb := a.RunRound(), b.RunRound(); ra != rb {
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
