package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"fedca/internal/nn"
)

// plainAvg is FedAvg over the whole fleet, with the runner's default reduce.
type plainAvg struct{}

func (plainAvg) Name() string                                     { return "fedavg" }
func (plainAvg) PlanRound(int, *History) RoundPlan                { return RoundPlan{Deadline: math.Inf(1)} }
func (plainAvg) NewController(*Client, int, RoundPlan) Controller { return NopController{} }

// cnnNets builds the benchmark's CNN for a runner.
type cnnNets struct{}

func (cnnNets) New64() *nn.Network            { return benchModel[float64]("cnn") }
func (cnnNets) New32() *nn.NetworkOf[float32] { return benchModel[float32]("cnn") }

// newCNNRunner builds a FedAvg runner over three identical clients of the
// benchmark's CNN.
func newCNNRunner(t *testing.T) *Runner {
	train, test := benchData("cnn", 64), benchData("cnn", 32)
	cs := make([]*Client, 3)
	for i := range cs {
		cs[i] = roundClient(train, 8)
		cs[i].ID = i
	}
	cfg := Config{LocalIters: 2, BatchSize: 8, LR: 0.05, BaseIterTime: 0.1, AggregateFraction: 1, EvalBatch: 32}
	r, err := NewFleetRunner(cfg, NewStaticFleet(cs), plainAvg{}, test, cnnNets{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDigestParams: the runner's digest is the SHA-256 of the master
// vector's little-endian IEEE 754 bits, hashed through a buffer many
// coordinates short of the vector, and computing it allocates nothing.
func TestDigestParams(t *testing.T) {
	r := newCNNRunner(t)
	if len(r.flat) <= 2*len(r.hashBuf)/8 {
		t.Fatalf("%d parameters span at most two %d-byte hash buffers; the chunking is untested", len(r.flat), len(r.hashBuf))
	}
	b := make([]byte, 0, 8*len(r.flat))
	for _, v := range r.flat {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	if want := Digest(sha256.Sum256(b)); r.Params() != want {
		t.Fatalf("digest %v, want %v", r.Params(), want)
	}
	if raceEnabled {
		t.Skip("alloc counts under the race detector measure its runtime")
	}
	if n := testing.AllocsPerRun(10, r.digestParams); n != 0 {
		t.Fatalf("digestParams allocated %v times; want 0", n)
	}
}

// TestOneUlpShowsOnlyInParams: two identical runners log identical records
// until, after round moved, one master coordinate of one of them moves by one
// ulp. The first record that differs is the next round's, and it differs in
// Params alone: the times, counts and accuracy cannot tell the two runs
// apart, the model's digest does.
func TestOneUlpShowsOnlyInParams(t *testing.T) {
	const moved = 1
	a, b := newCNNRunner(t), newCNNRunner(t)
	for round := 0; round <= moved; round++ {
		if ra, rb := a.RunRound().RoundRecord, b.RunRound().RoundRecord; ra != rb {
			t.Fatalf("round %d differs before any change:\n%+v\n%+v", round, ra, rb)
		}
	}
	i := len(b.flat) / 2
	b.flat[i] = math.Nextafter(b.flat[i], math.Inf(1))
	b.global.SetFlatParams(b.flat)
	ra, rb := a.RunRound().RoundRecord, b.RunRound().RoundRecord
	if ra.Params == rb.Params {
		t.Fatalf("round %d: coordinate %d one ulp apart, yet both records carry params %v", moved+1, i, ra.Params)
	}
	rb.Params = ra.Params
	if ra != rb {
		t.Fatalf("round %d: a field beside params differs:\n%+v\n%+v", moved+1, ra, rb)
	}
}
