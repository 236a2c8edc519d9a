package experiments

import (
	"fmt"
	"os"
	"testing"

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
				// The batch is a spec key; the noise is the geometry's and has
				// none, so it is set on the lowered workload.
				c := curves(m)
				c.spec += fmt.Sprintf(";batch=%d", batch)
				o, err := c.options(s, 42)
				if err != nil {
					t.Fatal(err)
				}
				w, tcfg, err := o.Lower()
				if err != nil {
					t.Fatal(err)
				}
				w.Noise = noise
				run, err := probeRun(s, o, w, tcfg)
				if err != nil {
					t.Fatal(err)
				}
				cd := run.Curves
				early := cd.Probes[probeKey{s.EarlyRound, 0}].Model
				late := cd.Probes[probeKey{s.LateRound, 0}].Model
				fmt.Printf("%-5s b=%-3d noise=%-4g early %s P20=%.2f | late %s P20=%.2f\n",
					m, batch, noise, report.Sparkline(early), at20(early), report.Sparkline(late), at20(late))
			}
		}
	}
}
