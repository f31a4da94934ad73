package experiment

import (
	"energyprop/internal/ep"
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "fig8",
		Title: "Fig 8: P100 energy nonproportionality and global Pareto fronts",
		Paper: "Global fronts average 2 points (max 3); N=10240 front has 3 points with 50% saving @ 11% degradation; N=10240 and N=14336 shown",
		Run:   runFig8,
	})
}

func runFig8(opt Options) ([]*Table, error) {
	sizes := []int{10240, 14336}
	if opt.Quick {
		sizes = []int{10240}
	}
	dev := gpusim.NewP100()
	var tables []*Table
	for _, n := range sizes {
		_, pts, err := gpuSweepPoints(opt, dev, n)
		if err != nil {
			return nil, err
		}
		weak, err := ep.AnalyzeWeakEP(pts, 0.025)
		if err != nil {
			return nil, err
		}
		front := pareto.Front(pts)
		t, err := frontTable("Fig 8: P100 global Pareto front, N="+f(float64(n), 0), front)
		if err != nil {
			return nil, err
		}
		best, err := pareto.BestTradeOff(front)
		if err != nil {
			return nil, err
		}
		t.AddNote("weak EP violated (energy CV %.2f, spread %.0f%%)", weak.EnergyCV, weak.EnergySpreadPct)
		t.AddNote("measured: %d front points, max %.1f%% saving @ %.1f%% degradation (paper: 3 points at N=10240, 50%% @ 11%%)",
			len(front), best.EnergySavingPct, best.PerfDegradationPct)
		tables = append(tables, t)
	}
	return tables, nil
}
