// cpu-weak-ep reproduces the Fig 4 scenario: run the threadgroup-
// decomposed DGEMM on the simulated dual-socket Haswell under many
// (partition, groups, threads) configurations, compute the average CPU
// utilization through the /proc/stat emulation, and show the two
// signatures of the paper's CPU study — the ~700 GFLOPs performance
// plateau and the non-functional dynamic-power-vs-utilization cloud.
package main

import (
	"fmt"
	"log"
	"sort"

	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/ep"
)

func main() {
	m := cpusim.NewHaswell()
	const n = 17408

	type obs struct {
		cfg    dense.Config
		util   float64
		gflops float64
		power  float64
	}
	var all []obs
	var utils, powers []float64
	for _, cfg := range m.EnumerateConfigs() {
		r, err := m.RunGEMM(cpusim.GEMMApp{N: n, Config: cfg, Variant: dense.VariantPacked}, nil)
		if err != nil {
			log.Fatal(err)
		}
		// Utilization the way the paper measures it: /proc/stat deltas.
		before, after, err := m.ProcStatPair(r)
		if err != nil {
			log.Fatal(err)
		}
		util, err := cpusim.AvgUtilizationFromProcStat(before, after)
		if err != nil {
			log.Fatal(err)
		}
		all = append(all, obs{cfg, util, r.GFLOPs, r.DynPowerW})
		utils = append(utils, util)
		powers = append(powers, r.DynPowerW)
	}

	sort.Slice(all, func(i, j int) bool { return all[i].util < all[j].util })
	fmt.Printf("MKL-like DGEMM, N=%d, %d configurations on %s\n", n, len(all), m.Spec.Name)
	fmt.Println("avg_util%  gflops  dyn_power_w  config")
	for i, o := range all {
		if i%7 == 0 { // sample the cloud for readability
			fmt.Printf("%8.1f  %6.0f  %11.1f  %s\n", 100*o.util, o.gflops, o.power, o.cfg)
		}
	}

	spread, err := ep.FunctionalSpread(utils, powers, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	peak := 0.0
	for _, o := range all {
		if o.gflops > peak {
			peak = o.gflops
		}
	}
	fmt.Printf("\npeak performance: %.0f GFLOPs (paper: plateau at ~700)\n", peak)
	fmt.Printf("worst same-utilization power spread: %.0f%% — dynamic power is NOT a function of average utilization\n",
		100*spread)
	fmt.Println("this is the paper's Fig 4 finding, explained by its two-core theorem (run: epstudy -run theory)")
}
