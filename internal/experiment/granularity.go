package experiment

import (
	"energyprop/internal/device"
	"energyprop/internal/hetero"
	"energyprop/internal/optimize"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "granularity",
		Title: "Companion work [25,26]: workload-distribution granularity vs front quality",
		Paper: "The distribution solvers of the Reddy et al. line operate on discrete workload units; finer chunking exposes more Pareto-optimal splits at higher profiling cost",
		Run:   runGranularity,
	})
}

func runGranularity(opt Options) ([]*Table, error) {
	unitSets := []int{4, 8, 16, 24}
	if opt.Quick {
		unitSets = []int{4, 8}
	}
	unitN := 2048
	t := &Table{
		Title: "Distribution fronts across CPU+K40c+P100 by chunk granularity",
		Columns: []string{"units", "front_points", "best_time_s", "best_energy_j",
			"max_saving_pct", "hypervolume_per_unit2"},
	}
	for _, units := range unitSets {
		ds, err := hetero.Distribute(device.PaperPlatform(device.AppDense, unitN), units)
		if err != nil {
			return nil, err
		}
		pts := optimize.Points(ds)
		best, err := pareto.BestTradeOff(pts)
		if err != nil {
			return nil, err
		}
		minT, minE := pts[0].Time, pts[0].Energy
		for _, p := range pts {
			if p.Time < minT {
				minT = p.Time
			}
			if p.Energy < minE {
				minE = p.Energy
			}
		}
		// Hypervolume normalized by the squared unit count so different
		// total workloads are comparable.
		ref := pareto.Point{Time: 3 * minT, Energy: 3 * minE}
		hv, err := pareto.Hypervolume(pareto.Front(pts), ref)
		if err != nil {
			return nil, err
		}
		norm := hv / float64(units*units)
		t.AddRow(f(float64(units), 0), f(float64(len(pts)), 0),
			f(minT, 4), f(minE, 2), f(best.EnergySavingPct, 1), f(norm, 5))
	}
	t.AddNote("finer chunking grows the front (more trade-off splits) while the extreme points converge; profiling cost grows linearly with the unit count")
	return []*Table{t}, nil
}
