package experiments

import "testing"

func TestExtCompressShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	res := mustRun(t, "ext-compress", s, 9)
	full := res.Values["bytes/fedavg"]
	q := res.Values["bytes/fedavg+qsgd7"]
	tk := res.Values["bytes/fedavg+topk5"]
	if full <= 0 || q <= 0 || tk <= 0 {
		t.Fatalf("missing byte accounting: %v %v %v", full, q, tk)
	}
	if q >= full/4 {
		t.Fatalf("qsgd bytes %v not ≪ full %v", q, full)
	}
	if tk >= full/4 {
		t.Fatalf("topk bytes %v not ≪ full %v", tk, full)
	}
	// Compression must also shorten wall time in the comm-heavy setting.
	if res.Values["total/fedavg+qsgd7"] >= res.Values["total/fedavg"] {
		t.Fatal("quantization did not shorten the comm-heavy run")
	}
	// FedCA must beat plain FedAvg on time in the comm-heavy setting too.
	if res.Values["total/fedca"] >= res.Values["total/fedavg"] {
		t.Fatal("fedca did not shorten the comm-heavy run")
	}
}

func TestExtSelectionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	res := mustRun(t, "ext-selection", s, 10)
	for _, v := range []string{"fedavg", "oort50", "safa", "fedca"} {
		if res.Values["best/"+v] <= 0 {
			t.Fatalf("%s missing accuracy", v)
		}
		if res.Values["meanround/"+v] <= 0 {
			t.Fatalf("%s missing round time", v)
		}
	}
}

func TestExtHyperparamShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := micro()
	res := mustRun(t, "ext-hp", s, 11)
	if res.Values["best/fedca"] <= 0 || res.Values["best/fedca+adaptlr"] <= 0 {
		t.Fatal("missing values")
	}
	// The adaptive variant must stay within a sane band of the baseline
	// (it is a refinement, not a new algorithm).
	ratio := res.Values["best/fedca+adaptlr"] / res.Values["best/fedca"]
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("adaptive LR changed accuracy too much: ratio %v", ratio)
	}
}
