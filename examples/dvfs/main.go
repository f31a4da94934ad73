// dvfs contrasts the two decision-variable categories of the paper's
// related work on the simulated Haswell: system-level frequency scaling
// versus the application-level threadgroup configuration, and their
// combination. For a memory-bound DGEMM the frequency knob saves energy
// almost for free; the application knob moves along a different front;
// the combined space dominates both.
package main

import (
	"fmt"
	"log"

	"energyprop"
	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
)

func main() {
	m := cpusim.NewHaswell()
	const n = 17408
	cfg := dense.Config{Groups: 2, ThreadsPerGroup: 24} // bandwidth-bound: 48 threads

	fmt.Printf("DVFS sweep at %s (memory-bound, N=%d):\n", cfg, n)
	results, levels, err := m.DVFSSweep(cpusim.GEMMApp{N: n, Config: cfg, Variant: dense.VariantPacked})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("  %.1f GHz: t=%7.3fs  %4.0f GFLOPs  %6.1f W  %8.0f J\n",
			levels[i], r.Seconds, r.GFLOPs, r.DynPowerW, r.DynEnergyJ)
	}
	first, last := results[0], results[len(results)-1]
	fmt.Printf("dropping from %.1f to %.1f GHz costs %.1f%% time and saves %.1f%% energy\n\n",
		levels[len(levels)-1], levels[0],
		100*(first.Seconds/last.Seconds-1),
		100*(1-first.DynEnergyJ/last.DynEnergyJ))

	// Compare the three fronts.
	var freqPts, cfgPts, combPts []energyprop.Point
	for i, r := range results {
		freqPts = append(freqPts, energyprop.Point{
			Label: fmt.Sprintf("%.1fGHz", levels[i]), Time: r.Seconds, Energy: r.DynEnergyJ})
	}
	for _, c := range m.EnumerateConfigs() {
		r, err := m.RunGEMM(cpusim.GEMMApp{N: n, Config: c, Variant: dense.VariantPacked}, nil)
		if err != nil {
			log.Fatal(err)
		}
		cfgPts = append(cfgPts, energyprop.Point{Label: c.String(), Time: r.Seconds, Energy: r.DynEnergyJ})
	}
	combined, err := m.CombinedSweep(n, dense.VariantPacked)
	if err != nil {
		log.Fatal(err)
	}
	for _, fc := range combined {
		combPts = append(combPts, energyprop.Point{
			Label:  fmt.Sprintf("%.1fGHz %s", fc.FreqGHz, fc.Config),
			Time:   fc.Result.Seconds,
			Energy: fc.Result.DynEnergyJ,
		})
	}
	for _, c := range []struct {
		name string
		pts  []energyprop.Point
	}{
		{"frequency only", freqPts},
		{"application config only", cfgPts},
		{"combined", combPts},
	} {
		front := energyprop.Front(c.pts)
		best, err := energyprop.BestTradeOff(front)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %4d points -> front %2d points, best trade-off %.1f%% energy @ %.1f%% time\n",
			c.name, len(c.pts), len(front), best.EnergySavingPct, best.PerfDegradationPct)
	}
}
