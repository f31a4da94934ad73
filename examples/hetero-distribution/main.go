// hetero-distribution demonstrates the bi-objective workload-distribution
// substrate of the paper's companion work (its refs [12], [25], [26]):
// profile the three simulated platforms of the paper's Fig 1 setup
// (Haswell CPU, K40c, P100) on a unit matrix product, then compute the
// Pareto-optimal distributions of a data-parallel workload across the
// heterogeneous ensemble.
package main

import (
	"fmt"
	"log"

	"energyprop"
	"energyprop/internal/device"
	"energyprop/internal/hetero"
	"energyprop/internal/optimize"
)

func main() {
	const unitN = 2048
	const totalUnits = 12

	procs := device.PaperPlatform(device.AppDense, unitN)
	fmt.Printf("distributing %d products of %dx%d across:\n", totalUnits, unitN, unitN)
	for _, p := range procs {
		s, e, err := p.RunUnits(1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s 1 unit: %8.4fs %8.2fJ\n", p.Name(), s, e)
	}

	ds, err := hetero.Distribute(procs, totalUnits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPareto-optimal distributions [cpu k40c p100] (%d points):\n", len(ds))
	tos, err := energyprop.TradeOffs(optimize.Points(ds))
	if err != nil {
		log.Fatal(err)
	}
	for _, to := range tos {
		fmt.Printf("  %-12s t=%8.4fs E=%9.2fJ (+%.1f%% time, -%.1f%% energy)\n",
			to.Point.Label, to.Point.Time, to.Point.Energy,
			to.PerfDegradationPct, to.EnergySavingPct)
	}

	// The epsilon-constraint pick: best energy within a 10% slowdown.
	best, err := optimize.CheapestWithin(optimize.Points(ds), 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwithin a 10%% slowdown budget, run %s (t=%.4fs, E=%.2fJ)\n",
		best.Label, best.Time, best.Energy)
}
