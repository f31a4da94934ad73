package experiment

import (
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "summary",
		Title: "Section V summary: savings across a wide range of workloads",
		Paper: "Max savings: K40c 18% @ 7% (local fronts, global front 1 point); P100 50% @ 11% (global fronts avg 2, max 3 points)",
		Run:   runSummary,
	})
}

func runSummary(opt Options) ([]*Table, error) {
	sizes := []int{8704, 10240, 12288, 14336, 16384, 18432}
	if opt.Quick {
		sizes = []int{10240, 14336}
	}

	t := &Table{
		Title: "Summary: Pareto-front statistics per device and workload",
		Columns: []string{"device", "n", "configs", "global_front_pts",
			"local_front_pts", "max_saving_pct", "at_degradation_pct"},
	}
	type devCase struct {
		dev *gpusim.Device
		// local reports whether the headline savings come from the local
		// (region) front, as the K40c's do.
		local              bool
		regionLo, regionHi int
	}
	cases := []devCase{
		{gpusim.NewK40c(), true, 21, 31},
		{gpusim.NewP100(), false, 1, 32},
	}
	for _, c := range cases {
		maxSaving, atDeg := 0.0, 0.0
		var globalSizes, localSizes []int
		for _, n := range sizes {
			results, pts, err := gpuSweepPoints(opt, c.dev, n)
			if err != nil {
				return nil, err
			}
			global := pareto.Front(pts)
			region := filterBS(results, pts, c.regionLo, c.regionHi)
			local := pareto.Front(region)
			analysis := global
			if c.local {
				analysis = local
			}
			best, err := pareto.BestTradeOff(analysis)
			if err != nil {
				return nil, err
			}
			if best.EnergySavingPct > maxSaving {
				maxSaving, atDeg = best.EnergySavingPct, best.PerfDegradationPct
			}
			globalSizes = append(globalSizes, len(global))
			localSizes = append(localSizes, len(local))
			t.AddRow(c.dev.Spec.Name, f(float64(n), 0), f(float64(len(pts)), 0),
				f(float64(len(global)), 0), f(float64(len(local)), 0),
				f(best.EnergySavingPct, 1), f(best.PerfDegradationPct, 1))
		}
		avgG, maxG := avgMax(globalSizes)
		avgL, maxL := avgMax(localSizes)
		t.AddNote("%s: global front avg %.1f / max %d points; local front avg %.1f / max %d points; headline max %.0f%% saving @ %.0f%% degradation",
			c.dev.Spec.Name, avgG, maxG, avgL, maxL, maxSaving, atDeg)
	}
	t.AddNote("paper headline: K40c (18%%, 7%%) via local fronts; P100 (50%%, 11%%) via global fronts")
	return []*Table{t}, nil
}

func avgMax(xs []int) (avg float64, max int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	return float64(sum) / float64(len(xs)), max
}
