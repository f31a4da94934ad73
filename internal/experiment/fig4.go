package experiment

import (
	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/ep"
)

func init() {
	Register(Experiment{
		ID:    "fig4",
		Title: "Fig 4: dynamic power and performance vs average CPU utilization (Haswell DGEMM)",
		Paper: "Performance linear to ~700 GFLOPs then plateaus; dynamic power linear at low utilization then non-functional scatter (points A/B and lines C/D)",
		Run:   runFig4,
	})
}

func runFig4(opt Options) ([]*Table, error) {
	n := 17408
	if opt.Quick {
		n = 4352
	}
	m := cpusim.NewHaswell()
	variants := []dense.Variant{dense.VariantPacked, dense.VariantTiled}

	var tables []*Table
	for _, v := range variants {
		t := &Table{
			Title:   "Fig 4: " + v.String() + " DGEMM, N=17408 configurations",
			Columns: []string{"config", "avg_util_pct", "gflops", "dyn_power_w", "dyn_energy_j"},
		}
		var utils, powers []float64
		peak := 0.0
		var r cpusim.Result // reused across the sweep; warm runs are allocation-free
		for _, cfg := range m.EnumerateConfigs() {
			if _, err := m.RunGEMM(cpusim.GEMMApp{N: n, Config: cfg, Variant: v}, &r); err != nil {
				return nil, err
			}
			// Average CPU utilization via the /proc/stat code path, as
			// the paper's methodology does.
			before, after, err := m.ProcStatPair(&r)
			if err != nil {
				return nil, err
			}
			util, err := cpusim.AvgUtilizationFromProcStat(before, after)
			if err != nil {
				return nil, err
			}
			t.AddRow(cfg.String(), f(100*util, 1), f(r.GFLOPs, 0), f(r.DynPowerW, 1), f(r.DynEnergyJ, 0))
			utils = append(utils, util)
			powers = append(powers, r.DynPowerW)
			if r.GFLOPs > peak {
				peak = r.GFLOPs
			}
		}
		spread, err := ep.FunctionalSpread(utils, powers, 0.05)
		if err != nil {
			return nil, err
		}
		r2, err := ep.LinearityR2(utils, powers)
		if err != nil {
			return nil, err
		}
		epScore, err := ep.RyckboschEP(utils, powers)
		if err != nil {
			return nil, err
		}
		t.AddNote("peak performance %.0f GFLOPs (paper: plateau at ~700)", peak)
		t.AddNote("power-vs-utilization: linear-fit R²=%.2f, worst same-utilization power spread %.0f%% (non-functional behaviour), Ryckbosch EP metric %.2f",
			r2, 100*spread, epScore)
		tables = append(tables, t)
	}
	return tables, nil
}
