package experiment

import (
	"fmt"
	"sort"

	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/stats"
)

func init() {
	Register(Experiment{
		ID:    "cpumodel",
		Title: "Section V.C: qualitative dynamic-energy model from PMC-style counters (CPU)",
		Paper: "Khokhriakov et al.'s model — variables reflecting TLB activity and utilization, selected for additivity and high positive correlation — shows nonproportionality comes from disproportionately energy-expensive dTLB activity",
		Run:   runCPUModel,
	})
}

func runCPUModel(opt Options) ([]*Table, error) {
	n := 17408
	if opt.Quick {
		n = 4352
	}
	m := cpusim.NewHaswell()

	// Collect counters and energies over the full configuration space of
	// one workload (the weak-EP setting: every run solves the same N).
	type sample struct {
		counts  cpusim.PMCCounts
		energyJ float64
	}
	var samples []sample
	var r cpusim.Result // reused across the sweep; warm runs are allocation-free
	for _, cfg := range m.EnumerateConfigs() {
		for _, v := range []dense.Variant{dense.VariantPacked, dense.VariantTiled} {
			if _, err := m.RunGEMM(cpusim.GEMMApp{N: n, Config: cfg, Variant: v}, &r); err != nil {
				return nil, err
			}
			c, err := m.CollectPMC(&r)
			if err != nil {
				return nil, err
			}
			samples = append(samples, sample{c, r.DynEnergyJ})
		}
	}

	// Correlation of every event with dynamic energy (the selection
	// criterion).
	corrT := &Table{
		Title:   "PMC correlation with dynamic energy (same-workload configurations)",
		Columns: []string{"event", "pearson_r"},
	}
	energies := make([]float64, len(samples))
	for i, s := range samples {
		energies[i] = s.energyJ
	}
	type evCorr struct {
		ev cpusim.PMCEvent
		r  float64
	}
	var corrs []evCorr
	for _, ev := range cpusim.AllPMCEvents() {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = s.counts[ev]
		}
		r, err := stats.PearsonCorrelation(xs, energies)
		if err != nil {
			// Constant across same-workload configurations (e.g.
			// instructions): not a usable model variable — exactly why the
			// methodology needs the selection step.
			corrT.AddRow(string(ev), "constant (excluded)")
			continue
		}
		corrs = append(corrs, evCorr{ev, r})
		corrT.AddRow(string(ev), f(r, 3))
	}
	sort.Slice(corrs, func(i, j int) bool { return corrs[i].r > corrs[j].r })

	// Fit the qualitative model on the counter variables that vary.
	rows := make([][]float64, len(samples))
	events := []cpusim.PMCEvent{
		cpusim.PMCCoreCycles, cpusim.PMCDTLBWalkCycles,
		cpusim.PMCLLCMisses, cpusim.PMCUncoreResidencyS,
	}
	for i, s := range samples {
		row := make([]float64, len(events))
		for j, ev := range events {
			row[j] = s.counts[ev]
		}
		rows[i] = row
	}
	coef, r2, err := stats.MultipleRegression(rows, energies)
	if err != nil {
		return nil, err
	}
	modelT := &Table{
		Title:   "Linear dynamic-energy model fit (E_d = β0 + Σ βi·event_i)",
		Columns: []string{"term", "coefficient"},
	}
	modelT.AddRow("intercept", fmt.Sprintf("%.4g", coef[0]))
	for j, ev := range events {
		modelT.AddRow(string(ev), fmt.Sprintf("%.4g", coef[j+1]))
	}
	modelT.AddNote("fit R² = %.3f over %d same-workload runs", r2, len(samples))
	// Energy share attributable to the dTLB term at the mean counts — the
	// "disproportionately energy expensive" claim quantified.
	var meanWalk, meanE float64
	for _, s := range samples {
		meanWalk += s.counts[cpusim.PMCDTLBWalkCycles]
		meanE += s.energyJ
	}
	meanWalk /= float64(len(samples))
	meanE /= float64(len(samples))
	walkShare := coef[2] * meanWalk / meanE
	modelT.AddNote("dTLB term explains %.0f%% of the mean dynamic energy: the nonproportional component", 100*walkShare)
	return []*Table{corrT, modelT}, nil
}
