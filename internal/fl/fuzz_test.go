package fl_test

import (
	"math"
	"reflect"
	"testing"

	"fedca/internal/fl"
)

// FuzzConfigValidate throws arbitrary knob combinations at Config.Validate.
// The contract under fuzzing: Validate never panics, and whenever it accepts
// a config the result is fully normalized — every accepted field satisfies
// the documented bounds, no NaN/Inf survives, and a second Validate call is
// an accepting no-op (idempotence).
func FuzzConfigValidate(f *testing.F) {
	// The paper's CIFAR-10 workload plus a few adversarial shapes.
	f.Add(125, 50, 0, 0, 0.05, 0.9, 0.01, 0.9, 0.03, 0.0, 0.0, 0.01, 1000)
	f.Add(1, 1, 0, -3, 0.01, 0.0, 0.0, 1.0, 1e-6, 139.4e6, 1e6, 1.0, 7)
	f.Add(0, 50, 16, 1, math.NaN(), math.Inf(1), -1.0, 1.5, -0.5, -4.0, -1.0, math.NaN(), 0)
	f.Fuzz(func(t *testing.T, localIters, batchSize, evalBatch, minQuorum int,
		lr, momentum, weightDecay, aggFrac, baseIter, modelBytes, maxNorm, participation float64,
		numParams int) {
		cfg := fl.Config{
			LocalIters:        localIters,
			BatchSize:         batchSize,
			EvalBatch:         evalBatch,
			MinQuorum:         minQuorum,
			LR:                lr,
			Momentum:          momentum,
			WeightDecay:       weightDecay,
			AggregateFraction: aggFrac,
			BaseIterTime:      baseIter,
			ModelBytes:        modelBytes,
			MaxDeltaNorm:      maxNorm,
			Participation:     participation,
		}
		if err := cfg.Validate(numParams); err != nil {
			return // rejected: nothing else to guarantee
		}
		// Accepted: every bound Validate claims to enforce must actually hold.
		if cfg.LocalIters <= 0 || cfg.BatchSize <= 0 {
			t.Fatalf("accepted non-positive iters/batch: %d/%d", cfg.LocalIters, cfg.BatchSize)
		}
		for name, v := range map[string]float64{
			"LR": cfg.LR, "Momentum": cfg.Momentum, "WeightDecay": cfg.WeightDecay,
			"AggregateFraction": cfg.AggregateFraction, "BaseIterTime": cfg.BaseIterTime,
			"ModelBytes": cfg.ModelBytes,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite %s = %v", name, v)
			}
		}
		if cfg.LR <= 0 || cfg.BaseIterTime <= 0 {
			t.Fatalf("accepted non-positive LR/BaseIterTime: %v/%v", cfg.LR, cfg.BaseIterTime)
		}
		if cfg.AggregateFraction <= 0 || cfg.AggregateFraction > 1 {
			t.Fatalf("accepted AggregateFraction outside (0,1]: %v", cfg.AggregateFraction)
		}
		if cfg.ModelBytes < 0 {
			t.Fatalf("accepted negative ModelBytes: %v", cfg.ModelBytes)
		}
		if cfg.MinQuorum < 0 {
			t.Fatalf("MinQuorum not clamped: %d", cfg.MinQuorum)
		}
		if cfg.MaxDeltaNorm < 0 || math.IsNaN(cfg.MaxDeltaNorm) {
			t.Fatalf("accepted bad MaxDeltaNorm: %v", cfg.MaxDeltaNorm)
		}
		if cfg.Participation < 0 || cfg.Participation > 1 || math.IsNaN(cfg.Participation) {
			t.Fatalf("accepted Participation outside [0,1]: %v", cfg.Participation)
		}
		// Idempotence: validating an already-validated config changes nothing.
		before := cfg
		if err := cfg.Validate(numParams); err != nil {
			t.Fatalf("revalidation of accepted config failed: %v", err)
		}
		if !reflect.DeepEqual(cfg, before) {
			t.Fatalf("revalidation mutated config: %+v -> %+v", before, cfg)
		}
	})
}
