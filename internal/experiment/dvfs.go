package experiment

import (
	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/pareto"
)

func init() {
	Register(Experiment{
		ID:    "dvfs",
		Title: "Extension: system-level (DVFS) vs application-level decision variables",
		Paper: "The related work's category split (Section II): DVFS methods vs application-level variables; this extension compares their fronts on the simulated Haswell",
		Run:   runDVFS,
	})
}

func runDVFS(opt Options) ([]*Table, error) {
	n := 17408
	if opt.Quick {
		n = 4352
	}
	m := cpusim.NewHaswell()

	// Knob 1: frequency only, at the performance-optimal configuration.
	bestCfg := dense.Config{Groups: 2, ThreadsPerGroup: 12, Partition: dense.PartitionContiguous}
	freqResults, levels, err := m.DVFSSweep(cpusim.GEMMApp{N: n, Config: bestCfg, Variant: dense.VariantPacked})
	if err != nil {
		return nil, err
	}
	freqT := &Table{
		Title:   "DVFS-only sweep (config fixed at " + bestCfg.String() + ")",
		Columns: []string{"freq_ghz", "time_s", "gflops", "dyn_power_w", "dyn_energy_j"},
	}
	var freqPts []pareto.Point
	for i, r := range freqResults {
		freqT.AddRow(f(levels[i], 1), f(r.Seconds, 3), f(r.GFLOPs, 0), f(r.DynPowerW, 1), f(r.DynEnergyJ, 0))
		freqPts = append(freqPts, pareto.Point{Label: f(levels[i], 1) + "GHz", Time: r.Seconds, Energy: r.DynEnergyJ})
	}

	// Knob 2: application configuration only, at nominal frequency.
	var cfgPts []pareto.Point
	var r cpusim.Result // reused across the sweep; warm runs are allocation-free
	for _, cfg := range m.EnumerateConfigs() {
		if _, err := m.RunGEMM(cpusim.GEMMApp{N: n, Config: cfg, Variant: dense.VariantPacked}, &r); err != nil {
			return nil, err
		}
		cfgPts = append(cfgPts, pareto.Point{Label: cfg.String(), Time: r.Seconds, Energy: r.DynEnergyJ})
	}

	// Combined space.
	combined, err := m.CombinedSweep(n, dense.VariantPacked)
	if err != nil {
		return nil, err
	}
	var combPts []pareto.Point
	for _, fc := range combined {
		combPts = append(combPts, pareto.Point{
			Label:  f(fc.FreqGHz, 1) + "GHz " + fc.Config.String(),
			Time:   fc.Result.Seconds,
			Energy: fc.Result.DynEnergyJ,
		})
	}

	cmp := &Table{
		Title:   "Front comparison: DVFS-only vs config-only vs combined",
		Columns: []string{"knob", "points_swept", "front_points", "best_time_s", "best_energy_j", "hypervolume"},
	}
	ref := refPoint(append(append(append([]pareto.Point(nil), freqPts...), cfgPts...), combPts...))
	for _, c := range []struct {
		name string
		pts  []pareto.Point
	}{
		{"DVFS only", freqPts},
		{"application config only", cfgPts},
		{"combined", combPts},
	} {
		front := pareto.Front(c.pts)
		hv, err := pareto.Hypervolume(front, ref)
		if err != nil {
			return nil, err
		}
		bestT, bestE := front[0].Time, front[0].Energy
		for _, p := range front {
			if p.Time < bestT {
				bestT = p.Time
			}
			if p.Energy < bestE {
				bestE = p.Energy
			}
		}
		cmp.AddRow(c.name, f(float64(len(c.pts)), 0), f(float64(len(front)), 0),
			f(bestT, 3), f(bestE, 0), f(hv, 0))
	}
	cmp.AddNote("the combined front weakly dominates both single-knob fronts (largest hypervolume): the knobs are complementary, as the related work's two categories suggest")
	return []*Table{freqT, cmp}, nil
}

// refPoint builds a hypervolume reference strictly worse than every point.
func refPoint(pts []pareto.Point) pareto.Point {
	ref := pareto.Point{}
	for _, p := range pts {
		if p.Time > ref.Time {
			ref.Time = p.Time
		}
		if p.Energy > ref.Energy {
			ref.Energy = p.Energy
		}
	}
	ref.Time *= 1.01
	ref.Energy *= 1.01
	return ref
}
