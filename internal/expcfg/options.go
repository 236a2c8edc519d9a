package expcfg

import (
	"cmp"
	"fmt"

	"fedca/internal/chaos"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/fl"
	"fedca/internal/rng"
	"fedca/internal/telemetry"
	"fedca/internal/trace"
)

// Options is the one description of a run: the library facade's
// fedca.Options, what fedca-sim's flags, a soak phase's keys and an
// experiment cell lower to, and what a run log's header records. Its text
// form (String, Set) names every run value; Lower is its one lowering, and
// NewRun assembles the runner on it. A number left 0 keeps the
// workload's default where a field says so. The zero value is not valid;
// start from fedca.DefaultOptions.
type Options struct {
	// Model selects the workload: "cnn", "lstm" or "wrn".
	Model string
	// Geometry is "" (or "paper") for the workload's model and data
	// geometry, or "tiny" for the smallest trainable one (Workload.Tiny),
	// the geometry of fedca-sim -scale tiny.
	Geometry string
	// Clients is the number of simulated participants, each fully
	// materialized up front (the classic testbed). Ignored when Fleet is set.
	Clients int
	// Fleet, when positive, virtualizes the population instead: only each
	// round's cohort is materialized, so memory scales with the cohort, and
	// client identity derives from (Seed, clientID).
	Fleet int
	// Participation is the fraction of the population that trains each
	// round (0 or 1 = everyone). Below 1 someone must pick the cohort: a
	// selecting scheme (Oort, which defaults to 0.5) or a virtual fleet,
	// which samples it from the seed.
	Participation float64
	// AggregateFraction overrides the workload's partial-aggregation cut
	// (paper: 0.9) when in (0, 1]. At any fraction an update folds into the
	// aggregate as soon as the finished updates decide that the cut
	// collects it; a cut that takes the whole cohort decides each as it
	// lands.
	AggregateFraction float64
	// Scheme selects the federated optimization strategy: "fedavg",
	// "fedprox", "fedada", "fedca", "fedca-v1", "fedca-v2", "oort", "safa"
	// (resolved by SchemeByName). "oort" picks who trains; see Participation.
	Scheme string
	// Seed drives all randomness; equal seeds reproduce runs bit-for-bit.
	Seed uint64

	// DType is the workers' training precision: "" or "f64" (the default),
	// or "f32"; master weights, deltas and aggregation stay float64, and an
	// f32 run is deterministic but follows its own trajectory.
	DType string
	// LocalIters is K, the default local iterations per round (paper: 125).
	LocalIters int
	// BatchSize is the local mini-batch size (paper: 50).
	BatchSize int
	// TrainSamples / TestSamples size the synthetic datasets.
	TrainSamples, TestSamples int
	// Alpha is the Dirichlet non-IID concentration (paper: 0.1).
	Alpha float64

	// Compress selects an upload compressor: "" or "none" (full precision),
	// "qsgd<levels>" (e.g. "qsgd7"), or "topk<percent>" (e.g. "topk1").
	Compress string
	// ModelBytes overrides the model size transfers take time for (0 = 4
	// bytes per parameter), to emulate a communication-heavy deployment.
	ModelBytes float64

	// Heterogeneous enables FedScale-like static speed spread; Dynamic
	// enables the paper's fast/slow mode toggling.
	Heterogeneous, Dynamic bool

	// Chaos is a fault-injection spec (chaos.ParseSpec; "" or "none" = off),
	// e.g. "drop=0.1,slow=0.3,degrade=0.2,outage=0.05,xfail=0.02,corrupt=0.01";
	// every fault derives from Seed.
	Chaos string
	// MinQuorum is the minimum number of valid updates needed to aggregate a
	// round (0 = 1); a round falling short is skipped and recorded.
	MinQuorum int
	// MaxDeltaNorm, when positive, caps the update-norm bound at an absolute
	// value. Validation runs every round without it: an update whose L2 norm
	// exceeds a bound derived from the global model's norm is quarantined.
	MaxDeltaNorm float64

	// Telemetry and Journal, when non-nil, receive the run's live metrics
	// and spans, and its flight-recorder events and per-client cost
	// attribution: Lower makes them the run's fl.Config.Observers, the sink
	// first. Nil costs nothing; attaching either never changes a run, so the
	// text form leaves them out.
	Telemetry *telemetry.Sink
	Journal   *telemetry.Journal

	// FedCA carries the FedCA hyperparameters (ignored by other schemes).
	// The zero value means core.DefaultOptions; K always follows LocalIters.
	FedCA core.Options
}

// Lower validates o against the bounds of its text form and resolves its
// run up to the scheme: the workload o.Model names at o's geometry, with
// every value o sets in place of the workload's default, the chaos engine
// (seeded from Fork("chaos-engine")) and the compressor installed in its
// config, and the speed-trace config of o's heterogeneity and dynamicity.
// NewRun builds on it; so does the experiments' curve probe, which trains
// a recording scheme of its own on the lowered testbed.
func (o Options) Lower() (Workload, trace.Config, error) {
	if err := o.validate(); err != nil {
		return Workload{}, trace.Config{}, err
	}
	w, err := ByName(o.Model)
	if err != nil {
		return Workload{}, trace.Config{}, err
	}
	if o.Fleet <= 0 && o.Clients <= 0 {
		return Workload{}, trace.Config{}, fmt.Errorf("expcfg: Clients must be positive unless Fleet > 0")
	}
	if o.Geometry == "tiny" {
		w = w.Tiny()
	}
	// validate admits no negative number, so a non-zero value is a set one.
	w.FL.LocalIters = cmp.Or(o.LocalIters, w.FL.LocalIters)
	w.FL.BatchSize = cmp.Or(o.BatchSize, w.FL.BatchSize)
	w.TrainN = cmp.Or(o.TrainSamples, w.TrainN)
	w.TestN = cmp.Or(o.TestSamples, w.TestN)
	w.Alpha = cmp.Or(o.Alpha, w.Alpha)
	w.FL.ModelBytes = cmp.Or(o.ModelBytes, w.FL.ModelBytes)
	w.FL.AggregateFraction = cmp.Or(o.AggregateFraction, w.FL.AggregateFraction)
	w.FL.DType = o.DType
	w.FL.MinQuorum = o.MinQuorum
	w.FL.MaxDeltaNorm = o.MaxDeltaNorm
	w.FL.Participation = o.Participation
	// The sink, then the journal; a nil one is no observer.
	if o.Telemetry != nil {
		w.FL.Observers = append(w.FL.Observers, o.Telemetry)
	}
	if o.Journal != nil {
		w.FL.Observers = append(w.FL.Observers, o.Journal)
	}

	ccfg, err := chaos.ParseSpec(o.Chaos)
	if err != nil {
		return Workload{}, trace.Config{}, err
	}
	if ccfg.Enabled() {
		if w.FL.Chaos, err = chaos.NewEngine(ccfg, rng.New(o.Seed).Fork("chaos-engine").Uint64()); err != nil {
			return Workload{}, trace.Config{}, err
		}
	}
	comp, err := compress.ByName(o.Compress)
	if err != nil {
		return Workload{}, trace.Config{}, err
	}
	if _, isNone := comp.(compress.None); !isNone {
		w.FL.Compressor = comp
	}

	tcfg := trace.Config{}
	if o.Dynamic || o.Heterogeneous {
		tcfg = trace.PaperConfig()
		if !o.Heterogeneous {
			tcfg.HeterogeneitySigma = 0
		}
		tcfg.Dynamic = o.Dynamic
	}
	return w, tcfg, nil
}

// NewRun assembles o's run: Lower, then the scheme (SchemeByName),
// then the testbed or virtual fleet and the runner. The scheme is resolved
// before the testbed because it may write into the config (Oort sets
// Participation). Everything a caller reports about the run — its chaos
// spec, compressor, participation — reads back from the runner's Cfg, and
// the scheme from its Scheme field.
func (o Options) NewRun() (*fl.Runner, error) {
	w, tcfg, err := o.Lower()
	if err != nil {
		return nil, err
	}
	scheme, err := SchemeByName(o.Scheme, &w.FL, o.FedCA, o.Seed)
	if err != nil {
		return nil, err
	}
	if o.Fleet > 0 {
		tb, err := BuildFleet(w, o.Fleet, 0, tcfg, o.Seed)
		if err != nil {
			return nil, err
		}
		return tb.NewRunner(scheme)
	}
	return Build(w, o.Clients, tcfg, o.Seed).NewRunner(scheme)
}
