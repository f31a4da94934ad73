package experiment

import (
	"fmt"
	"math"
	"testing"

	"energyprop/internal/gpusim"
)

// TestGPUSweepPointsMatchSerialSweep: the figures' sweep engine
// (campaign.Stream over the model-true analytic GPU) must reproduce the
// simulator's serial Sweep point for point — config, label, seconds and
// energy bit for bit, enumeration order included — on calibrated,
// rescaled and ablated devices, serially and eight workers wide. Every
// figure table rests on this equivalence.
func TestGPUSweepPointsMatchSerialSweep(t *testing.T) {
	devices := map[string]func() *gpusim.Device{
		"p100": gpusim.NewP100,
		"k40c": gpusim.NewK40c,
		"p100 power x0.9": func() *gpusim.Device {
			d := gpusim.NewP100()
			d.ScaleTradeoffPower(0.9)
			return d
		},
		"p100 perf x0.9": func() *gpusim.Device {
			d := gpusim.NewP100()
			d.ScaleTradeoffPerf(0.9)
			return d
		},
		"p100 boost 0": func() *gpusim.Device {
			d := gpusim.NewP100()
			d.SetBoostK(0)
			return d
		},
		"k40c no group effects, no fetch engine": func() *gpusim.Device {
			d := gpusim.NewK40c()
			d.SetGroupEffects(0, 0)
			d.SetFetchEngine(false)
			return d
		},
	}
	for name, mk := range devices {
		for _, n := range []int{4352, 10240} {
			serial, err := mk().Sweep(gpusim.MatMulWorkload{N: n, Products: 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				reports, pts, err := gpuSweepPoints(Options{Workers: workers}, mk(), n)
				if err != nil {
					t.Fatal(err)
				}
				if len(reports) != len(serial) || len(pts) != len(serial) {
					t.Fatalf("%s n=%d workers=%d: %d points, serial sweep has %d", name, n, workers, len(pts), len(serial))
				}
				for i, r := range serial {
					rep, p := reports[i], pts[i]
					same := gpuConfig(rep) == r.Config && p.Label == r.Config.String() &&
						math.Float64bits(p.Time) == math.Float64bits(r.Seconds) &&
						math.Float64bits(p.Energy) == math.Float64bits(r.DynEnergyJ) &&
						fmt.Sprintf("%.1f", rep.TrueEnergyJ/rep.TrueSeconds) == fmt.Sprintf("%.1f", r.DynPowerW)
					if !same {
						t.Fatalf("%s n=%d workers=%d: point %d differs: %+v / %+v, serial %+v", name, n, workers, i, rep, p, r)
					}
				}
			}
		}
	}
}
