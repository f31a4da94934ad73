package experiment

import (
	"energyprop/internal/cpusim"
	"energyprop/internal/ep"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "cpufft",
		Title: "Section III context: weak EP of the 2D FFT threadgroup application (CPU)",
		Paper: "Khokhriakov et al. studied four applications incl. FFT variants; weak EP is violated for every family, not only DGEMM",
		Run:   runCPUFFT,
	})
}

func runCPUFFT(opt Options) ([]*Table, error) {
	n := 16384
	if opt.Quick {
		n = 4096
	}
	m := cpusim.NewHaswell()
	t := &Table{
		Title:   "2D FFT threadgroup configurations on Haswell, N=" + f(float64(n), 0),
		Columns: []string{"config", "time_s", "gflops", "dyn_power_w", "dyn_energy_j"},
	}
	var pts []pareto.Point
	for _, cfg := range m.EnumerateConfigs() {
		if cfg.Threads() > n {
			continue
		}
		r, err := m.RunFFT2DThreaded(n, cfg, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.String(), f(r.Seconds, 4), f(r.GFLOPs, 1), f(r.DynPowerW, 1), f(r.DynEnergyJ, 2))
		pts = append(pts, pareto.Point{Label: cfg.String(), Time: r.Seconds, Energy: r.DynEnergyJ})
	}
	weak, err := ep.AnalyzeWeakEP(pts, 0.025)
	if err != nil {
		return nil, err
	}
	verdict := "VIOLATED"
	if weak.Holds {
		verdict = "HOLDS"
	}
	t.AddNote("weak EP %s for the FFT family too: energy CV %.2f over %d same-workload configurations",
		verdict, weak.EnergyCV, len(pts))
	if weak.OpportunityExists {
		t.AddNote("bi-objective opportunity: %.1f%% saving @ %.1f%% degradation (front of %d points)",
			weak.BestTradeOff.EnergySavingPct, weak.BestTradeOff.PerfDegradationPct, len(weak.GlobalFront))
	} else {
		t.AddNote("the performance optimum is also the energy optimum for this family")
	}
	return []*Table{t}, nil
}
