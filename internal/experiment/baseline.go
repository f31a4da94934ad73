package experiment

import (
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "baseline",
		Title: "Section IV design choice: tunable kernel vs CUBLAS library baseline",
		Paper: "The CUBLAS DGEMM routine is not selected since it lacks application-level tuning variables — the library gives one point, the Fig 5 kernel gives a front",
		Run:   runBaseline,
	})
}

func runBaseline(opt Options) ([]*Table, error) {
	n := 10240
	if opt.Quick {
		n = 4096
	}
	t := &Table{
		Title:   "Library baseline vs tunable-kernel front (N=" + f(float64(n), 0) + ")",
		Columns: []string{"device", "point", "time_s", "dyn_energy_j", "note"},
	}
	for _, dev := range []*gpusim.Device{gpusim.NewK40c(), gpusim.NewP100()} {
		lib, err := dev.RunCUBLASDGEMM(gpusim.MatMulWorkload{N: n, Products: 8})
		if err != nil {
			return nil, err
		}
		t.AddRow(dev.Spec.Name, "CUBLAS DGEMM", f(lib.Seconds, 3), f(lib.DynEnergyJ, 1),
			"single point: no decision variables")
		_, pts, err := gpuSweepPoints(opt, dev, n)
		if err != nil {
			return nil, err
		}
		front := pareto.Front(pts)
		for _, p := range front {
			note := ""
			if p.Energy < lib.DynEnergyJ {
				note = "beats the library on energy"
			}
			t.AddRow(dev.Spec.Name, p.Label, f(p.Time, 3), f(p.Energy, 1), note)
		}
	}
	t.AddNote("the library wins every race but cannot trade energy for time; the tunable kernel's front is what enables bi-objective optimization")
	return []*Table{t}, nil
}
