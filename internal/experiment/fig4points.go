package experiment

import (
	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/ep"
)

func init() {
	Register(Experiment{
		ID:    "fig4points",
		Title: "Fig 4's annotated points A/B and lines C/D, reconstructed",
		Paper: "A/B: a small utilization change on some cores raises power without improving performance; C/D: equal average utilization with different power and performance — the two-core theorem's cases realized on the full machine",
		Run:   runFig4Points,
	})
}

func runFig4Points(opt Options) ([]*Table, error) {
	n := 17408
	if opt.Quick {
		n = 4352
	}
	m := cpusim.NewHaswell()
	run := func(app cpusim.GEMMApp) (*cpusim.Result, error) { return m.RunGEMM(app, nil) }

	// Case A/B: same configuration size, but one run places two of its
	// threads on hyperthread siblings (compact) instead of separate
	// physical cores: utilization barely moves, power structure does.
	t := &Table{
		Title:   "Fig 4 cases on the simulated Haswell (N=" + f(float64(n), 0) + ")",
		Columns: []string{"case", "config", "avg_util_pct", "gflops", "dyn_power_w"},
	}
	a, err := run(cpusim.GEMMApp{N: n,
		Config: dense.Config{Groups: 1, ThreadsPerGroup: 12}, Placement: cpusim.PlacementCompact})
	if err != nil {
		return nil, err
	}
	b, err := run(cpusim.GEMMApp{N: n,
		Config: dense.Config{Groups: 1, ThreadsPerGroup: 12}, Placement: cpusim.PlacementScatter})
	if err != nil {
		return nil, err
	}
	t.AddRow("A (compact)", "p=1,t=12", f(100*a.AvgUtil, 1), f(a.GFLOPs, 0), f(a.DynPowerW, 1))
	t.AddRow("B (scatter)", "p=1,t=12", f(100*b.AvgUtil, 1), f(b.GFLOPs, 0), f(b.DynPowerW, 1))

	// Case C/D: equal average utilization (24 threads), one socket vs two.
	c, err := run(cpusim.GEMMApp{N: n, Config: dense.Config{Groups: 1, ThreadsPerGroup: 24}})
	if err != nil {
		return nil, err
	}
	d, err := run(cpusim.GEMMApp{N: n, Config: dense.Config{Groups: 2, ThreadsPerGroup: 12}})
	if err != nil {
		return nil, err
	}
	t.AddRow("C (one socket, HT)", "p=1,t=24", f(100*c.AvgUtil, 1), f(c.GFLOPs, 0), f(c.DynPowerW, 1))
	t.AddRow("D (two sockets)", "p=2,t=12", f(100*d.AvgUtil, 1), f(d.GFLOPs, 0), f(d.DynPowerW, 1))
	t.AddNote("C and D share the same average utilization yet differ in both power and performance: dynamic power is not a function of utilization")

	// Tie back to the theory: the same structure in the two-core model.
	model := ep.TwoCoreModel{A: 1, B: 1}
	thm, err := model.Theorem(0.5, 0.25)
	if err != nil {
		return nil, err
	}
	t.AddNote("two-core theorem at (u=0.5, du=0.25): E1=%.2f, E2=%.2f, E3=%.2f — the same ordering the machine exhibits",
		thm.E1.TotalEnergy, thm.E2.TotalEnergy, thm.E3.TotalEnergy)
	return []*Table{t}, nil
}
