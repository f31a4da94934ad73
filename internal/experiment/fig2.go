package experiment

import (
	"energyprop/internal/ep"
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "fig2",
		Title: "Fig 2: P100 EP plots for N=18432 (regions + global Pareto front)",
		Paper: "Two regions: BS 1..20 proportional; BS 21..32 trade-off. Paper's front: 2 points, 12.5% saving @ 2.5% degradation; BS<=30 region: 24% @ 8%",
		Run:   runFig2,
	})
}

func runFig2(opt Options) ([]*Table, error) {
	n := 18432
	if opt.Quick {
		n = 9216
	}
	results, pts, err := gpuSweepPoints(opt, gpusim.NewP100(), n)
	if err != nil {
		return nil, err
	}

	all := &Table{
		Title:   "Fig 2 (top left): all configurations, P100, N=18432",
		Columns: []string{"config", "time_s", "dyn_energy_j"},
	}
	for _, p := range pts {
		all.AddRow(p.Label, f(p.Time, 4), f(p.Energy, 1))
	}
	weak, err := ep.AnalyzeWeakEP(pts, 0.025)
	if err != nil {
		return nil, err
	}
	all.AddNote("weak EP violated: energy CV %.2f, spread %.0f%% across %d same-workload configurations",
		weak.EnergyCV, weak.EnergySpreadPct, len(pts))

	// Top right: proportional region BS 1..20.
	prop := filterBS(results, pts, 1, 20)
	region := ep.ProportionalRegion(prop)
	propT := &Table{
		Title:   "Fig 2 (top right): proportional region (BS 1..20)",
		Columns: []string{"metric", "value"},
	}
	propT.AddRow("configurations in region", f(float64(len(prop)), 0))
	propT.AddRow("monotone E-vs-t prefix length", f(float64(len(region)), 0))
	propT.AddNote("in this region optimizing for performance also optimizes dynamic energy")

	// Bottom: trade-off region BS 21..32 and its front.
	trade := filterBS(results, pts, 21, 32)
	front := pareto.Front(trade)
	frontT, err := frontTable("Fig 2 (bottom): BS 21..32 region global Pareto front", front)
	if err != nil {
		return nil, err
	}
	best, err := pareto.BestTradeOff(front)
	if err != nil {
		return nil, err
	}
	frontT.AddNote("measured: %d front points, max %.1f%% saving @ %.1f%% degradation (paper: 2 points, 12.5%% @ 2.5%%)",
		len(front), best.EnergySavingPct, best.PerfDegradationPct)

	// The paper's BS <= 30 sub-region.
	sub := filterBS(results, pts, 21, 30)
	subFront := pareto.Front(sub)
	subT, err := frontTable("Fig 2: BS 21..30 sub-region front", subFront)
	if err != nil {
		return nil, err
	}
	subBest, err := pareto.BestTradeOff(subFront)
	if err != nil {
		return nil, err
	}
	subT.AddNote("measured: %.1f%% saving @ %.1f%% degradation (paper: 24%% @ 8%%)",
		subBest.EnergySavingPct, subBest.PerfDegradationPct)

	return []*Table{all, propT, frontT, subT}, nil
}
