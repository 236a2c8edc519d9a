// Package expcfg centralizes the canonical experiment configurations of the
// reproduction: the three workloads (CNN, LSTM, WRN) with the paper's
// hyperparameters (Sec. 5.1), scaled-down model/data sizes that train inside
// a test harness, a Build helper that assembles a complete simulated
// testbed (clients with Dirichlet-partitioned data, speed traces, shaped
// links, and the model's fl.Networks), SchemeByName, the registry that
// turns a scheme name into an fl.Scheme, and Options, the one description of
// a run, with its text form, its one lowering, Options.Lower, and
// Options.NewRun, which assembles the runner on it.
package expcfg

import (
	"fmt"

	"fedca/internal/data"
	"fedca/internal/fl"
	"fedca/internal/model"
	"fedca/internal/nn"
	"fedca/internal/rng"
	"fedca/internal/simnet"
	"fedca/internal/tensor"
	"fedca/internal/trace"
)

// Workload bundles everything that defines one of the paper's three
// model/dataset pairs.
type Workload struct {
	Name string

	Img model.ImageConfig
	Seq model.SeqConfig
	Wrn model.WRNConfig

	FL fl.Config

	TrainN, TestN int
	Noise         float64
	Alpha         float64 // Dirichlet concentration (paper: 0.1)
}

// CNN returns the LeNet-5/CIFAR-10-style workload. Base iteration time and
// model bytes are set so the compute/communication ratio matches the paper's
// CNN row (240 KB model, ≈0.1 s nominal iterations).
func CNN() Workload {
	return Workload{
		Name: "cnn",
		Img:  model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 10},
		FL: fl.Config{
			LocalIters:        125,
			BatchSize:         50,
			LR:                0.01,
			WeightDecay:       0.01,
			AggregateFraction: 0.9,
			BaseIterTime:      0.1,
			ModelBytes:        60e3 * 4,
			EvalBatch:         256,
		},
		TrainN: 4000, TestN: 1000,
		Noise: 1.0, Alpha: 0.1,
	}
}

// LSTM returns the LSTM/KWS-style workload (200 KB model, ≈0.2 s iterations).
func LSTM() Workload {
	return Workload{
		Name: "lstm",
		Seq:  model.SeqConfig{SeqLen: 10, FeatDim: 8, Hidden: 24, Layers: 2, Classes: 10},
		FL: fl.Config{
			LocalIters:        125,
			BatchSize:         50,
			LR:                0.05,
			WeightDecay:       0.01,
			AggregateFraction: 0.9,
			BaseIterTime:      0.2,
			ModelBytes:        50e3 * 4,
			EvalBatch:         256,
		},
		TrainN: 4000, TestN: 1000,
		Noise: 0.8, Alpha: 0.1,
	}
}

// WRN returns the WideResNet/CIFAR-100-style workload. The network is a
// scaled-down WideResNet (see DESIGN.md §2), but ModelBytes is set to the
// full 139.4 MB of WRN-28-10 so the communication bottleneck matches the
// paper's WRN row (≈81 s uploads at 13.7 Mbps vs ≈95 s nominal iterations).
func WRN() Workload {
	img := model.ImageConfig{Channels: 3, Height: 16, Width: 16, Classes: 20}
	return Workload{
		Name: "wrn",
		Img:  img,
		Wrn:  model.WRNConfig{Image: img, BlocksPerGroup: 2, Width: 8},
		FL: fl.Config{
			LocalIters:        125,
			BatchSize:         50,
			LR:                0.1,
			WeightDecay:       0.0005,
			AggregateFraction: 0.9,
			BaseIterTime:      95,
			ModelBytes:        139.4e6,
			EvalBatch:         256,
		},
		TrainN: 4000, TestN: 1000,
		Noise: 1.0, Alpha: 0.1,
	}
}

// ByName returns the named workload ("cnn", "lstm", "wrn").
func ByName(name string) (Workload, error) {
	switch name {
	case "cnn":
		return CNN(), nil
	case "lstm":
		return LSTM(), nil
	case "wrn":
		return WRN(), nil
	default:
		return Workload{}, fmt.Errorf("expcfg: unknown workload %q", name)
	}
}

// Tiny shrinks the workload to its smallest trainable geometry (Options
// Geometry "tiny"), with noise set so accuracy does not saturate within a
// short round budget and the late-stage effects of Figs. 9–10 stay visible.
func (w Workload) Tiny() Workload {
	switch w.Name {
	case "cnn":
		w.Img.Height, w.Img.Width, w.Img.Classes = 8, 8, 8
		w.Noise = 1.4
	case "lstm":
		w.Seq.SeqLen, w.Seq.Hidden, w.Seq.Classes = 8, 16, 8
		w.Noise = 1.2
	case "wrn":
		w.Img.Height, w.Img.Width, w.Img.Classes = 8, 8, 8
		w.Wrn.Image = w.Img
		w.Wrn.BlocksPerGroup, w.Wrn.Width = 1, 4
		w.Noise = 1.4
	}
	return w
}

// NewModel instantiates the workload's network.
func (w Workload) NewModel(r *rng.RNG) *model.Model {
	return NewModelOf[float64](w, r)
}

// NewModelOf instantiates the workload's network at dtype F. Methods cannot
// take type parameters, so this is a package-level function; NewModel is its
// float64 shorthand. At every dtype the constructor draws the same
// initialization stream — a float32 model is the float64 initialization
// narrowed element-wise.
func NewModelOf[F tensor.Float](w Workload, r *rng.RNG) *model.ModelOf[F] {
	switch w.Name {
	case "cnn":
		return model.NewCNNOf[F](w.Img, r)
	case "lstm":
		return model.NewLSTMOf[F](w.Seq, r)
	case "wrn":
		return model.NewWRNOf[F](w.Wrn, r)
	default:
		panic("expcfg: workload has no model: " + w.Name)
	}
}

// Testbed is a fully assembled simulated deployment.
type Testbed struct {
	Workload Workload
	Clients  []*fl.Client
	Test     *data.Dataset
	// Nets builds the workload's model at either dtype, every call from the
	// testbed's model seed: a float32 network is the float64 initialization
	// narrowed.
	Nets fl.Networks
}

// Build assembles numClients clients with Dirichlet-partitioned local data,
// per-client speed models from tcfg, and 13.7 Mbps shaped links. Everything
// derives from seed. A client's shard is a list of rows of the one training
// set, read through a view loader, as a VirtualFleet's are: the rows are
// never copied.
func Build(w Workload, numClients int, tcfg trace.Config, seed uint64) *Testbed {
	master := rng.New(seed)
	train, tb := w.synthesize(master)
	parts := data.DirichletPartition(train.Y, numClients, w.Alpha, w.minShard(), master.Fork("partition"))
	speeds := trace.NewFleet(numClients, tcfg, master.Fork("speeds"))

	tb.Clients = make([]*fl.Client, numClients)
	for i := range tb.Clients {
		tb.Clients[i] = &fl.Client{
			ID:     i,
			Loader: data.NewViewLoader(train, parts[i], w.FL.BatchSize, master.Fork("loader", i)),
			Speed:  speeds[i],
			Up:     simnet.NewLink(simnet.DefaultClientBandwidth, 0),
			Down:   simnet.NewLink(simnet.DefaultClientBandwidth, 0),
			Weight: float64(len(parts[i])),
		}
	}
	return tb
}

// synthesize builds what every testbed shape shares, from master: the
// workload's synthetic training set (returned for the caller to partition),
// and a Testbed carrying the workload, its test set and its Networks. Both
// sets hold float32 features (data.Dataset), whatever the run's dtype.
func (w Workload) synthesize(master *rng.RNG) (*data.Dataset, *Testbed) {
	var gen interface {
		Generate(n int, r *rng.RNG) *data.Dataset
	}
	if w.Name == "lstm" {
		gen = data.NewSeqGenerator(data.SeqSpec{
			Classes: w.Seq.Classes, SeqLen: w.Seq.SeqLen, FeatDim: w.Seq.FeatDim, Noise: w.Noise,
		}, master.Fork("templates"))
	} else {
		gen = data.NewImageGenerator(data.ImageSpec{
			Classes: w.Img.Classes, Channels: w.Img.Channels, Height: w.Img.Height, Width: w.Img.Width, Noise: w.Noise,
		}, master.Fork("templates"))
	}
	train := gen.Generate(w.TrainN, master.Fork("train"))
	return train, &Testbed{
		Workload: w,
		Test:     gen.Generate(w.TestN, master.Fork("test")),
		Nets:     modelNets{w: w, seed: master.Fork("model").Uint64()},
	}
}

// modelNets implements fl.Networks: the workload's model, every call drawn
// from rng.New(seed), at either dtype.
type modelNets struct {
	w    Workload
	seed uint64
}

func (m modelNets) New64() *nn.Network { return m.w.NewModel(rng.New(m.seed)).Network }

func (m modelNets) New32() *nn.NetworkOf[float32] {
	return NewModelOf[float32](m.w, rng.New(m.seed)).Network
}

// minShard is the smallest client shard the workload trains on: one batch,
// and never fewer than two samples.
func (w Workload) minShard() int { return max(w.FL.BatchSize, 2) }

// NewRunner builds an fl.Runner over the testbed's clients (a static fleet)
// with the given scheme.
func (tb *Testbed) NewRunner(scheme fl.Scheme) (*fl.Runner, error) {
	return fl.NewFleetRunner(tb.Workload.FL, fl.NewStaticFleet(tb.Clients), scheme, tb.Test, tb.Nets)
}
