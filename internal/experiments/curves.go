package experiments

import (
	"fmt"
	"strings"
	"sync"

	"fedca/internal/baseline"
	"fedca/internal/core"
	"fedca/internal/expcfg"
	"fedca/internal/fl"
	"fedca/internal/metrics"
	"fedca/internal/report"
	"fedca/internal/rng"
)

// probeKey addresses one recorded (round, client) statistical trajectory.
type probeKey struct{ Round, Client int }

// ProbeCurves holds the statistical-progress curves of one client round,
// computed from FULL per-iteration snapshots, plus the periodically-sampled
// approximation (Fig. 5's comparison).
type ProbeCurves struct {
	Model   []float64   // model-level P_τ
	Layer   [][]float64 // per parameter tensor, full values
	Sampled [][]float64 // per parameter tensor, sampled subset
}

// CurveData is everything Figs. 2–5 need for one workload.
type CurveData struct {
	ModelName  string
	K          int
	LayerNames []string
	LayerSizes []int
	Probes     map[probeKey]*ProbeCurves
}

// Probe returns the curves recorded for (round, client), or nil if that pair
// was not targeted.
func (cd *CurveData) Probe(round, client int) *ProbeCurves {
	return cd.Probes[probeKey{Round: round, Client: client}]
}

// probeScheme behaves exactly like FedAvg (no optimizations — curves must
// describe plain training) while recording full snapshot trajectories for
// targeted (round, client) pairs.
type probeScheme struct {
	baseline.FedAvg
	targets map[probeKey]bool
	sampler func(clientID int) *core.Profiler

	mu    sync.Mutex
	out   map[probeKey]*ProbeCurves
	names []string
	sizes []int
}

// newProbeScheme targets the rounds Figs. 2–5 need: clients 0 and 1 at the
// early and late stage, plus a window of consecutive rounds for client 0 at
// both stages (Fig. 4). Its sampled curves profile at most sampleCap
// parameters per layer.
func newProbeScheme(s Scale, seed uint64, sampleCap int) *probeScheme {
	targets := make(map[probeKey]bool)
	for _, stage := range []int{s.EarlyRound, s.LateRound} {
		targets[probeKey{stage, 0}] = true
		targets[probeKey{stage, 1}] = true
		for d := 0; d < s.Window; d++ {
			targets[probeKey{stage + d, 0}] = true
		}
	}
	samplerRng := rng.New(seed).Fork("probe-sampler")
	return &probeScheme{
		targets: targets,
		out:     make(map[probeKey]*ProbeCurves),
		sampler: func(clientID int) *core.Profiler {
			return core.NewProfiler(sampleCap, core.DefaultSampleFrac, samplerRng.Fork("c", clientID))
		},
	}
}

func (p *probeScheme) Name() string { return "fedavg-probe" }

func (p *probeScheme) NewController(c *fl.Client, round int, _ fl.RoundPlan) fl.Controller {
	k := probeKey{Round: round, Client: c.ID}
	if !p.targets[k] {
		return fl.NopController{}
	}
	return &probeController{scheme: p, key: k, prof: p.sampler(c.ID)}
}

type probeController struct {
	fl.NopController
	scheme *probeScheme
	key    probeKey
	prof   *core.Profiler
	snaps  [][]float64
}

func (c *probeController) AfterIteration(st fl.IterState) fl.IterAction {
	c.snaps = append(c.snaps, append([]float64(nil), st.Delta...))
	if c.prof != nil {
		if !c.prof.Recording() {
			c.prof.BeginAnchor(c.key.Round)
		}
		c.prof.Record(st.Ranges, st.Delta)
	}
	return fl.IterAction{}
}

func (c *probeController) Finalize(st fl.FinalState) fl.FinalAction {
	pc := &ProbeCurves{Model: core.ProgressCurve(c.snaps)}
	pc.Layer = make([][]float64, len(st.Ranges))
	for l, rg := range st.Ranges {
		block := make([][]float64, len(c.snaps))
		for t := range c.snaps {
			block[t] = c.snaps[t][rg.Start:rg.End]
		}
		pc.Layer[l] = core.ProgressCurve(block)
	}
	if c.prof != nil {
		pc.Sampled = c.prof.FinishAnchor().Layer
	}
	c.scheme.mu.Lock()
	defer c.scheme.mu.Unlock()
	c.scheme.out[c.key] = pc
	if c.scheme.names == nil {
		for _, rg := range st.Ranges {
			c.scheme.names = append(c.scheme.names, rg.Name)
			c.scheme.sizes = append(c.scheme.sizes, rg.Size())
		}
	}
	c.snaps = nil
	return fl.FinalAction{}
}

// CollectCurvesFor is the uncached probe run over an explicit workload,
// exported so calibration tooling can probe modified configurations.
func CollectCurvesFor(w expcfg.Workload, s Scale, seed uint64) (*CurveData, error) {
	c := curves(w.Name)
	c.edit = func(x *expcfg.Workload) { *x = w }
	_, cd, err := runCell(s, seed, c)
	return cd, err
}

// curveModels are the workloads Figs. 2–5 cover.
var curveModels = []string{"cnn", "lstm", "wrn"}

// curveCells are the probe sweeps Figs. 2–5 share.
var curveCells = each(curveModels, curves)

// stage is a probed point of training: Figs. 2–5 compare an early and a
// late round.
type stage struct {
	name  string
	round int
}

func stages(s Scale) []stage { return []stage{{"early", s.EarlyRound}, {"late", s.LateRound}} }

// fig2 regenerates Fig. 2: model-level statistical-progress curves for two
// clients at an early and a late round, for each workload.
func fig2(in *inputs) *Result {
	s := in.s
	res := newResult("fig2")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — statistical progress curves (clients 0/1, rounds %d/%d)\n", s.EarlyRound, s.LateRound)
	for _, m := range curveModels {
		cd := in.curves(curves(m))
		for _, stage := range stages(s) {
			for _, client := range []int{0, 1} {
				curve := cd.Probes[probeKey{stage.round, client}].Model
				name := fmt.Sprintf("%s-%s-client%d", m, stage.name, client)
				res.Series[name] = curve
				fmt.Fprintf(&b, "%-22s %s  P@20%%=%.2f P@K=%.2f\n", name, report.Sparkline(curve), at20(curve), curve[len(curve)-1])
			}
		}
		// Shape statistic: progress at 20% of iterations, averaged.
		res.Values["p20/"+m] = (at20(cd.Probes[probeKey{s.EarlyRound, 0}].Model) +
			at20(cd.Probes[probeKey{s.LateRound, 0}].Model)) / 2
	}
	res.Text = b.String()
	return res
}

func at20(curve []float64) float64 {
	i := len(curve) / 5
	if i < 1 {
		i = 1
	}
	return curve[i-1]
}

// fig3 regenerates Fig. 3: per-layer curves. For each workload it reports the
// pair of layers whose curves diverge the most (the paper hand-picks named
// layers; the most-divergent pair demonstrates the same cross-layer
// heterogeneity and works for any architecture).
func fig3(in *inputs) *Result {
	res := newResult("fig3")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — per-layer statistical progress (most divergent layer pair)\n")
	for _, m := range curveModels {
		cd := in.curves(curves(m))
		for _, stage := range stages(in.s) {
			pc := cd.Probes[probeKey{stage.round, 0}]
			l1, l2, gap := mostDivergentPair(pc.Layer)
			res.Values[fmt.Sprintf("gap/%s/%s", m, stage.name)] = gap
			for _, l := range []int{l1, l2} {
				name := fmt.Sprintf("%s-%s-%s", m, stage.name, cd.LayerNames[l])
				res.Series[name] = pc.Layer[l]
				fmt.Fprintf(&b, "%-44s %s\n", name, report.Sparkline(pc.Layer[l]))
			}
		}
	}
	res.Text = b.String()
	return res
}

// mostDivergentPair returns the two curves with the largest mean absolute
// gap, plus that gap.
func mostDivergentPair(curves [][]float64) (a, b int, gap float64) {
	for i := range curves {
		for j := i + 1; j < len(curves); j++ {
			g := meanAbsGap(curves[i], curves[j])
			if g > gap {
				a, b, gap = i, j, g
			}
		}
	}
	return a, b, gap
}

func meanAbsGap(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := x[i] - y[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(n)
}

// fig4 regenerates Fig. 4: similarity of a client's curves across consecutive
// rounds, at an early and a late stage.
func fig4(in *inputs) *Result {
	s := in.s
	res := newResult("fig4")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — curve similarity across %d consecutive rounds (client 0)\n", s.Window)
	for _, m := range curveModels {
		cd := in.curves(curves(m))
		for _, stage := range stages(s) {
			var curves [][]float64
			for d := 0; d < s.Window; d++ {
				c := cd.Probes[probeKey{stage.round + d, 0}].Model
				curves = append(curves, c)
				name := fmt.Sprintf("%s-%s-round%d", m, stage.name, stage.round+d)
				res.Series[name] = c
				fmt.Fprintf(&b, "%-26s %s\n", name, report.Sparkline(c))
			}
			// Max pairwise RMSE quantifies the "high resemblance" claim.
			worst := 0.0
			for i := range curves {
				for j := i + 1; j < len(curves); j++ {
					if r := metrics.RMSE(curves[i], curves[j]); r > worst {
						worst = r
					}
				}
			}
			res.Values[fmt.Sprintf("maxRMSE/%s/%s", m, stage.name)] = worst
			fmt.Fprintf(&b, "  max pairwise RMSE (%s, %s): %.4f\n", m, stage.name, worst)
		}
	}
	res.Text = b.String()
	return res
}

// fig5 regenerates Fig. 5: per-layer curves profiled with all parameters vs
// with the min(50%, 100)-sampled subset.
func fig5(in *inputs) *Result {
	res := newResult("fig5")
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — full vs sampled profiling (largest layer of each model)\n")
	for _, m := range curveModels {
		cd := in.curves(curves(m))
		for _, stage := range stages(in.s) {
			pc := cd.Probes[probeKey{stage.round, 0}]
			l := largestLayer(cd)
			full := pc.Layer[l]
			sampled := pc.Sampled[l]
			d := metrics.MaxAbsDiff(full, sampled)
			res.Series[fmt.Sprintf("%s-%s-full", m, stage.name)] = full
			res.Series[fmt.Sprintf("%s-%s-sampled", m, stage.name)] = sampled
			res.Values[fmt.Sprintf("maxdiff/%s/%s", m, stage.name)] = d
			fmt.Fprintf(&b, "%-10s %-6s layer %-34s full    %s\n", m, stage.name, cd.LayerNames[l], report.Sparkline(full))
			fmt.Fprintf(&b, "%-10s %-6s layer %-34s sampled %s  maxΔ=%.3f\n", m, stage.name, cd.LayerNames[l], report.Sparkline(sampled), d)
		}
	}
	res.Text = b.String()
	return res
}

// largestLayer picks the layer with the most parameters — where sampling
// matters most (a 100-of-many subset represents the whole tensor).
func largestLayer(cd *CurveData) int {
	best := 0
	for i, sz := range cd.LayerSizes {
		if sz > cd.LayerSizes[best] {
			best = i
		}
	}
	return best
}
