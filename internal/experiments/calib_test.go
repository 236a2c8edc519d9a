package experiments

import (
	"fmt"
	"os"
	"testing"

	"fedca/internal/expcfg"
	"fedca/internal/report"
)

// TestCalibrate is a manual calibration harness:
//
//	CALIB=1 go test ./internal/experiments -run TestCalibrate -v
func TestCalibrate(t *testing.T) {
	if os.Getenv("CALIB") == "" {
		t.Skip("calibration harness; set CALIB=1")
	}
	s := tinyScale()
	for _, m := range []string{"cnn"} {
		for _, batch := range []int{16, 32, 64} {
			for _, noise := range []float64{1.0, 0.5} {
				c := curves(m)
				c.edit = func(w *expcfg.Workload) {
					w.FL.BatchSize = batch
					w.Noise = noise
				}
				_, cd, err := runCell(s, 42, c)
				if err != nil {
					t.Fatal(err)
				}
				early := cd.Probes[probeKey{s.EarlyRound, 0}].Model
				late := cd.Probes[probeKey{s.LateRound, 0}].Model
				fmt.Printf("%-5s b=%-3d noise=%-4g early %s P20=%.2f | late %s P20=%.2f\n",
					m, batch, noise, report.Sparkline(early), at20(early), report.Sparkline(late), at20(late))
			}
		}
	}
}
