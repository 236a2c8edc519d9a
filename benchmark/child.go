package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fedca"
)

// childEnv carries a childSpec to a re-exec of this binary. Every workload
// run is its own process so peak RSS, CPU seconds, the process-wide cputok
// budget, arenas and sync.Pools all start identically cold. An environment
// variable (not a flag) selects child mode so the smoke test's binary can
// serve as its own child through TestMain.
const childEnv = "FEDCA_BENCH_CHILD"

// childSpec is one run of one workload through the fedca facade.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Rounds is the measured round count after the warm-up round; 0 runs the
	// set-up (fedca.New + round 0) only.
	Rounds int `json:"rounds"`
	// Traced attaches Options.Telemetry and Options.Journal and records
	// benchmark-side spans.
	Traced bool `json:"traced"`
	// Tiny shrinks the workload to smoke-test size.
	Tiny bool `json:"tiny"`
}

// roundRec is one RunRound as the benchmark saw it.
type roundRec struct {
	Index int     `json:"index"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"` // process user+sys time over the round
	// Iterations counts the local iterations every client of the round ran,
	// dropped ones included; only a traced run can read it.
	Iterations float64 `json:"iterations,omitempty"`
	Accuracy   float64 `json:"accuracy"`
	VirtualS   float64 `json:"virtual_end_s"`
	Collected  int     `json:"collected"`
	MeanIters  float64 `json:"mean_iterations"`
	Skipped    bool    `json:"skipped"`
}

// counters are cumulative run totals read from the program's existing
// observation surface, keyed by name. The telemetry-backed ones (link bytes,
// transfers, early stops, iterations, journal events) exist only in a traced
// run; the fedca_* ones only under a FedCA scheme.
type counters map[string]float64

// childResult is the JSON a child prints on its standard output.
type childResult struct {
	Spec      childSpec  `json:"spec"`
	SetupS    float64    `json:"setup_s"`
	Rounds    []roundRec `json:"rounds"` // warm-up round first
	PeakRSSMB float64    `json:"peak_rss_mb"`
	Checksum  string     `json:"checksum"`
	// AfterWarmup and Final are cumulative counters at those two instants;
	// their difference is what the measured rounds did.
	AfterWarmup counters `json:"after_warmup"`
	Final       counters `json:"final"`
	TokenCap    int      `json:"cputok_cap"`
	TokenMax    int      `json:"cputok_max_inflight"`
	Spans       []span   `json:"spans,omitempty"`
}

// measured returns the wall and CPU seconds of each measured round (every
// round but the warm-up).
func (r *childResult) measured() (wall, cpu []float64) {
	for _, rr := range r.Rounds[1:] {
		wall, cpu = append(wall, rr.WallS), append(cpu, rr.CPUS)
	}
	return wall, cpu
}

// cpuSeconds is the process's user+sys time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark, from VmHWM in
// /proc/self/status. getrusage's ru_maxrss will not do: Linux carries it
// across exec, so a child reports its parent's size at the fork when that was
// larger (and the parent grows while it runs the probes).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runChild executes spec in this process and returns what it measured.
func runChild(spec childSpec) (*childResult, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	opts := w.options(spec.Seed, spec.Tiny)
	var tel *fedca.Telemetry
	var journal *fedca.Journal
	var spans *spanList
	if spec.Traced {
		tel, journal = fedca.NewTelemetry(), fedca.NewJournal(0)
		defer tel.Close()
		opts.Telemetry, opts.Journal = tel, journal
		spans = &spanList{workload: w.Name}
	}
	res := &childResult{Spec: spec}
	root := spans.begin("run:traced", -1)

	t0 := time.Now()
	id := spans.begin("fedca.New", root)
	f, err := fedca.New(opts)
	spans.end(id)
	if err != nil {
		return nil, err
	}
	readCounters := func() counters {
		d := f.DegradationStats()
		c := counters{
			"cohort_clients": float64(d.CohortClients), "skipped_rounds": float64(d.SkippedRounds),
			"quarantined": float64(d.Quarantined), "dropped": float64(d.DroppedRounds),
			"link_retries": float64(d.LinkRetries),
		}
		if s, ok := f.FedCAStats(); ok {
			c["fedca_full_rounds"], c["fedca_anchor_rounds"] = float64(s.FullRounds), float64(s.AnchorRounds)
			c["fedca_eager_sends"], c["fedca_retransmits"] = float64(s.EagerSentTotal), float64(s.RetransmitsTotal)
		}
		if tel != nil {
			c["up_bytes"], c["down_bytes"] = tel.UplinkBytes.Value(), tel.DownlinkBytes.Value()
			c["transfers"], c["transfer_retries"] = tel.LinkTransfers.Value(), tel.LinkRetries.Value()
			c["early_stops"], c["iterations"] = tel.EarlyStops.Value(), tel.ClientIters.Sum()
			c["journal_events"] = float64(journal.LastSeq())
		}
		return c
	}
	var iterations float64 // cumulative, at the end of the previous round
	round := func() {
		id := spans.begin("fedca.RunRound", root)
		cpu0 := cpuSeconds()
		t := time.Now()
		r := f.RunRound()
		wall := time.Since(t).Seconds()
		cpu := cpuSeconds() - cpu0
		spans.end(id)
		rec := roundRec{
			Index: r.Index, WallS: wall, CPUS: cpu, Accuracy: r.Accuracy, VirtualS: r.End,
			Collected: r.Collected, MeanIters: r.MeanIterations, Skipped: r.Skipped,
		}
		if tel != nil {
			rec.Iterations = tel.ClientIters.Sum() - iterations
			iterations += rec.Iterations
		}
		res.Rounds = append(res.Rounds, rec)
	}
	round()
	res.SetupS = time.Since(t0).Seconds()
	res.AfterWarmup = readCounters()

	for i := 0; i < spec.Rounds; i++ {
		round()
	}
	res.PeakRSSMB = peakRSSMB()

	res.Checksum = f.ParamsChecksum()
	res.Final = readCounters()
	tok := f.Snapshot().Tokens
	res.TokenCap, res.TokenMax = tok.Cap, tok.Max
	spans.end(root)
	if spans != nil {
		res.Spans = spans.spans
	}
	return res, nil
}

// childMain is the whole life of a child process.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: bad spec:", err)
		return 2
	}
	res, err := runChild(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// childProcs is the GOMAXPROCS every child runs at: min(nproc, 4), so the
// numbers of a 2-core sandbox and a 4-core CI box stay comparable with boxes
// that have more.
func childProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// spawnChild re-executes this binary in child mode and waits for it. A child
// that dies or prints no result is an error; the caller counts its rounds as
// failed.
func spawnChild(spec childSpec) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(specJSON), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", spec.Workload, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child %s: unreadable result: %w", spec.Workload, err)
	}
	return &res, nil
}
