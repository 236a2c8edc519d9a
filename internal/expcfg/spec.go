package expcfg

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fedca/internal/chaos"
	"fedca/internal/compress"
	"fedca/internal/core"
	"fedca/internal/fl"
)

const specVersion = "2"

// field is one run value of the text form: its key, its address in an
// Options value (an *int, *uint64, *float64, *bool or *string) and its
// bounds — [lo, hi] for a number, canon for a string, which checks it and
// returns its canonical form ("none" for chaos or compress when off, "f64"
// and "paper" for the default dtype and geometry). A spec is operator
// input: out-of-range, NaN or Inf values are errors, never replaced.
type field struct {
	key    string
	ptr    func(o *Options) any
	lo, hi float64
	canon  func(string) (string, error)
}

// fields is the text form, in order: "v=2", then each key=value, separated
// by ';'. The FedCA hyperparameters nest as fedca.<lower-cased field>; K is
// no key, the scheme takes it from iters. Telemetry and Journal are
// observers, not run values.
var fields = []field{
	{key: "model", ptr: func(o *Options) any { return &o.Model }, canon: canonModel},
	{key: "geometry", ptr: func(o *Options) any { return &o.Geometry }, canon: canonEnum("geometry", "paper", "tiny")},
	{key: "scheme", ptr: func(o *Options) any { return &o.Scheme }, canon: canonScheme},
	{key: "seed", ptr: func(o *Options) any { return &o.Seed }},
	{key: "clients", ptr: func(o *Options) any { return &o.Clients }, hi: 65_536},
	{key: "fleet", ptr: func(o *Options) any { return &o.Fleet }, hi: 1e9},
	{key: "participation", ptr: func(o *Options) any { return &o.Participation }, hi: 1},
	{key: "iters", ptr: func(o *Options) any { return &o.LocalIters }, hi: 1e6},
	{key: "batch", ptr: func(o *Options) any { return &o.BatchSize }, hi: 1e6},
	{key: "train", ptr: func(o *Options) any { return &o.TrainSamples }, hi: 1 << 27},
	{key: "test", ptr: func(o *Options) any { return &o.TestSamples }, hi: 1 << 27},
	{key: "alpha", ptr: func(o *Options) any { return &o.Alpha }, hi: 1e6},
	{key: "dtype", ptr: func(o *Options) any { return &o.DType }, canon: canonEnum("dtype", "f64", "f32")},
	{key: "aggfrac", ptr: func(o *Options) any { return &o.AggregateFraction }, hi: 1},
	{key: "modelbytes", ptr: func(o *Options) any { return &o.ModelBytes }, hi: 1e15},
	{key: "compress", ptr: func(o *Options) any { return &o.Compress }, canon: canonCompress},
	{key: "hetero", ptr: func(o *Options) any { return &o.Heterogeneous }},
	{key: "dynamic", ptr: func(o *Options) any { return &o.Dynamic }},
	{key: "chaos", ptr: func(o *Options) any { return &o.Chaos }, canon: canonChaos},
	{key: "quorum", ptr: func(o *Options) any { return &o.MinQuorum }, hi: 1e6},
	{key: "maxnorm", ptr: func(o *Options) any { return &o.MaxDeltaNorm }, hi: 1e30},
	{key: "fedca.beta", ptr: func(o *Options) any { return &o.FedCA.Beta }, hi: 1e6},
	{key: "fedca.te", ptr: func(o *Options) any { return &o.FedCA.Te }, lo: -1, hi: 1},
	{key: "fedca.tr", ptr: func(o *Options) any { return &o.FedCA.Tr }, lo: -1, hi: 1},
	{key: "fedca.profileperiod", ptr: func(o *Options) any { return &o.FedCA.ProfilePeriod }, hi: 1e6},
	{key: "fedca.samplecap", ptr: func(o *Options) any { return &o.FedCA.SampleCap }, hi: 1 << 27},
	{key: "fedca.earlystop", ptr: func(o *Options) any { return &o.FedCA.EarlyStop }},
	{key: "fedca.eager", ptr: func(o *Options) any { return &o.FedCA.Eager }},
	{key: "fedca.retransmit", ptr: func(o *Options) any { return &o.FedCA.Retransmit }},
	{key: "fedca.disablebenfloor", ptr: func(o *Options) any { return &o.FedCA.DisableBenFloor }},
	{key: "fedca.deadlinequantile", ptr: func(o *Options) any { return &o.FedCA.DeadlineQuantile }, hi: 1},
	{key: "fedca.adaptivelr", ptr: func(o *Options) any { return &o.FedCA.AdaptiveLR }},
}

// String writes o in the canonical text form. Set of it rebuilds an
// Options value that runs the same run, and String of that is the same text.
func (o Options) String() string {
	o = o.withFedCA()
	s := "v=" + specVersion
	for _, f := range fields {
		s += ";" + f.key + "=" + f.format(&o)
	}
	return s
}

// Set applies a spec — key=value fields separated by ';', in any order and
// case, a later key winning — onto o: each key replaces its value, the rest
// keep theirs, so the full text form (String) sets every run value. An
// unknown key, a value outside its bounds or a version other than v=2 is an
// error and leaves o unchanged.
func (o *Options) Set(spec string) error {
	if len(spec) > 8192 {
		return fmt.Errorf("expcfg: spec longer than 8192 bytes")
	}
	c := *o
	for _, kv := range strings.Split(spec, ";") {
		if strings.TrimSpace(kv) == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)
		i := slices.IndexFunc(fields, func(f field) bool { return f.key == key })
		switch {
		case !ok:
			return fmt.Errorf("expcfg: field %q is not key=value", kv)
		case key == "v" && val != specVersion:
			return fmt.Errorf("expcfg: spec version %q, want %s", val, specVersion)
		case key == "v":
			continue
		case i < 0:
			return fmt.Errorf("expcfg: unknown field %q", key)
		case strings.HasPrefix(key, "fedca."):
			// A FedCA key edits the hyperparameters the run would use, not
			// the zero value that stands for them.
			c = c.withFedCA()
		}
		if err := fields[i].parse(&c, val); err != nil {
			return err
		}
	}
	*o = c
	return nil
}

// validate checks every run value against its bounds: o is runnable only if
// its text form is one Set accepts.
func (o Options) validate() error {
	var c Options
	return c.Set(o.String())
}

// withFedCA returns o with zero FedCA hyperparameters spelled out as the
// core.DefaultOptions they stand for (SchemeByName's K == 0 case);
// SchemeByName replaces K with LocalIters, so K here only marks them set.
func (o Options) withFedCA() Options {
	if o.FedCA.K == 0 {
		o.FedCA = core.DefaultOptions(max(o.LocalIters, 1))
	}
	return o
}

func (f field) format(o *Options) string {
	switch p := f.ptr(o).(type) {
	case *int:
		return strconv.Itoa(*p)
	case *uint64:
		return strconv.FormatUint(*p, 10)
	case *float64:
		return formatFloat(*p)
	case *bool:
		return strconv.FormatBool(*p)
	}
	s := *f.ptr(o).(*string)
	if c, err := f.canon(s); err == nil {
		return c
	}
	return strconv.Quote(s) // no canon accepts a quote: Set rejects it
}

// parse sets f in o from its text and checks its bounds.
func (f field) parse(o *Options, val string) error {
	var err error
	num := f.lo // a bool, seed or string is always inside
	switch p := f.ptr(o).(type) {
	case *int:
		*p, err = strconv.Atoi(val)
		num = float64(*p)
	case *uint64:
		*p, err = strconv.ParseUint(val, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(val, 64)
		num = *p
	case *bool:
		*p, err = strconv.ParseBool(val)
	case *string:
		if *p, err = f.canon(val); err != nil {
			return err
		}
	}
	if err != nil {
		return fmt.Errorf("expcfg: bad %s value %q", f.key, val)
	}
	if !(num >= f.lo && num <= f.hi) { // NaN and ±Inf fail too
		return fmt.Errorf("expcfg: %s=%s outside [%v,%v]", f.key, val, f.lo, f.hi)
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func canonModel(s string) (string, error) {
	_, err := ByName(s)
	return s, err
}

func canonScheme(s string) (string, error) {
	_, err := SchemeByName(s, &fl.Config{LocalIters: 1}, core.Options{}, 0)
	return s, err
}

// canonEnum accepts one of names, and "" as the first.
func canonEnum(key string, names ...string) func(string) (string, error) {
	return func(s string) (string, error) {
		if s == "" {
			return names[0], nil
		}
		if !slices.Contains(names, s) {
			return "", fmt.Errorf("expcfg: %s %q: want one of %v", key, s, names)
		}
		return s, nil
	}
}

func canonChaos(s string) (string, error) {
	c, err := chaos.ParseSpec(s)
	return c.Spec(), err
}

// canonCompress keeps a compressor spec as written — not its Name, whose
// TopK Frac·100 can miss the percentage by an ulp — since ByName accepts
// each compressor in one spelling only; "" is "none".
func canonCompress(s string) (string, error) {
	if _, err := compress.ByName(s); err != nil || s != "" {
		return s, err
	}
	return "none", nil
}
