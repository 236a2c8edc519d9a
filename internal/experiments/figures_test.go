package experiments

import (
	"strings"
	"testing"
)

// TestAllGeneratorsAtMicroScale smoke-runs every registered experiment at the
// micro scale: each must produce non-empty rendered text and at least one
// structured value or series. Convergence runs are shared through the cache,
// so the whole sweep costs roughly one run per scheme variant.
func TestAllGeneratorsAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, s, 21)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Fatalf("result id %q", res.ID)
			}
			if strings.TrimSpace(res.Text) == "" {
				t.Fatal("empty rendered text")
			}
			if len(res.Values)+len(res.Series) == 0 {
				t.Fatal("no structured outputs")
			}
		})
	}
}

// TestTable1Shape verifies the headline orderings at micro scale: FedCA must
// not be slower than FedAvg to the common target on any workload.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	res := mustRun(t, "table1", s, 21)
	for _, m := range curveModels {
		avg := res.Values["total/"+m+"/fedavg"]
		ca := res.Values["total/"+m+"/fedca"]
		if avg <= 0 || ca <= 0 {
			t.Fatalf("%s: missing totals", m)
		}
		if ca > avg*1.02 { // tiny tolerance for barrier jitter
			t.Fatalf("%s: fedca %v slower than fedavg %v", m, ca, avg)
		}
		if res.Values["target/"+m] <= 0 {
			t.Fatalf("%s: no target", m)
		}
	}
}
