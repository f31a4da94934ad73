package experiment

import (
	"energyprop/internal/ep"
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "fig7",
		Title: "Fig 7: K40c energy nonproportionality and local Pareto fronts",
		Paper: "Global front is a single point (BS=32); local fronts average 4 points (max 5); up to 18% saving @ 7% degradation; N=8704 and N=10240 shown",
		Run:   runFig7,
	})
}

func runFig7(opt Options) ([]*Table, error) {
	sizes := []int{8704, 10240}
	if opt.Quick {
		sizes = []int{10240}
	}
	dev := gpusim.NewK40c()
	var tables []*Table
	for _, n := range sizes {
		results, pts, err := gpuSweepPoints(opt, dev, n)
		if err != nil {
			return nil, err
		}
		weak, err := ep.AnalyzeWeakEP(pts, 0.025)
		if err != nil {
			return nil, err
		}
		global := pareto.Front(pts)
		gt, err := frontTable("Fig 7: K40c global Pareto front, N="+f(float64(n), 0), global)
		if err != nil {
			return nil, err
		}
		gt.AddNote("weak EP violated (energy CV %.2f) yet the global front has %d point(s): the performance optimum is also the energy optimum (paper: 1 point, BS=32)",
			weak.EnergyCV, len(global))

		// The paper's local front: the BS 21..31 nonproportionality region.
		region := filterBS(results, pts, 21, 31)
		local := pareto.Front(region)
		lt, err := frontTable("Fig 7: K40c local Pareto front (BS 21..31 region), N="+f(float64(n), 0), local)
		if err != nil {
			return nil, err
		}
		best, err := pareto.BestTradeOff(local)
		if err != nil {
			return nil, err
		}
		lt.AddNote("measured: %d local-front points, max %.1f%% saving @ %.1f%% degradation (paper: avg 4 / max 5 points, 18%% @ 7%%)",
			len(local), best.EnergySavingPct, best.PerfDegradationPct)
		tables = append(tables, gt, lt)
	}
	return tables, nil
}
