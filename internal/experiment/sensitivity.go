package experiment

import (
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "sensitivity",
		Title: "Calibration sensitivity: do the findings survive ±10% on the measured magnitudes?",
		Paper: "DESIGN.md's credibility check: the simulators' mechanisms are physical, the magnitudes are calibration; the paper-shape conclusions must not hinge on their exact values",
		Run:   runSensitivity,
	})
}

func runSensitivity(opt Options) ([]*Table, error) {
	n := 10240
	if opt.Quick {
		n = 4096
	}
	factors := []float64{0.90, 0.95, 1.00, 1.05, 1.10}

	t := &Table{
		Title: "P100 findings vs trade-off-region power calibration (×factor)",
		Columns: []string{"power_factor", "global_front_pts", "max_saving_pct",
			"at_degradation_pct", "k40c_front_pts"},
	}
	for _, factor := range factors {
		p100 := gpusim.NewP100()
		p100.ScaleTradeoffPower(factor)
		_, pts, err := gpuSweepPoints(opt, p100, n)
		if err != nil {
			return nil, err
		}
		front := pareto.Front(pts)
		best, err := pareto.BestTradeOff(front)
		if err != nil {
			return nil, err
		}
		k40c := gpusim.NewK40c()
		k40c.ScaleTradeoffPower(factor)
		_, kpts, err := gpuSweepPoints(opt, k40c, n)
		if err != nil {
			return nil, err
		}
		kFront := pareto.Front(kpts)
		t.AddRow(f(factor, 2), f(float64(len(front)), 0), f(best.EnergySavingPct, 1),
			f(best.PerfDegradationPct, 1), f(float64(len(kFront)), 0))
	}
	t.AddNote("the P100's multi-point front and ~50%% saving, and the K40c's single-point front, persist across ±10%% power recalibration")

	p := &Table{
		Title: "P100 findings vs trade-off-region performance calibration (×factor)",
		Columns: []string{"perf_factor", "global_front_pts", "max_saving_pct",
			"at_degradation_pct"},
	}
	for _, factor := range factors {
		dev := gpusim.NewP100()
		dev.ScaleTradeoffPerf(factor)
		_, pts, err := gpuSweepPoints(opt, dev, n)
		if err != nil {
			return nil, err
		}
		front := pareto.Front(pts)
		best, err := pareto.BestTradeOff(front)
		if err != nil {
			return nil, err
		}
		p.AddRow(f(factor, 2), f(float64(len(front)), 0),
			f(best.EnergySavingPct, 1), f(best.PerfDegradationPct, 1))
	}
	p.AddNote("performance recalibration shifts the degradation axis but not the qualitative structure; large slowdowns (×0.90) can merge the proportional region into the front")
	return []*Table{t, p}, nil
}
