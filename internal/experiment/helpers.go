package experiment

import (
	"context"
	"fmt"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
)

// f formats a float with the given precision.
func f(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// gpuSweepPoints runs the full (BS, G, R) sweep of Products=8 at size n
// on the product's sweep engine — campaign.Stream over the device's
// model-true (analytic) variant, opt.Workers wide — and returns the
// reports in enumeration order with their Pareto points. It takes the
// simulator itself, not a registry name, so scaled and ablated devices
// sweep the same way; no cache is attached, since model-true cache keys
// do not tell a scaled device from the calibrated one.
func gpuSweepPoints(opt Options, dev *gpusim.Device, n int) ([]campaign.PointReport, []pareto.Point, error) {
	g, err := device.NewGPU(dev.Spec.Name, dev)
	if err != nil {
		return nil, nil, err
	}
	a := g.Analytic()
	w := device.Workload{N: n, Products: 8}
	configs, err := a.Configs(w)
	if err != nil {
		return nil, nil, err
	}
	reports := make([]campaign.PointReport, 0, len(configs))
	pts := make([]pareto.Point, 0, len(configs))
	sink := campaign.FuncSink{AcceptFunc: func(o campaign.PointOutcome) error {
		reports = append(reports, o.Report)
		pts = append(pts, pareto.Point{Label: o.Label, Time: o.Report.TrueSeconds, Energy: o.Report.TrueEnergyJ})
		return nil
	}}
	spec := campaign.Spec{ModelTrue: true, Workers: opt.Workers}
	if err := campaign.Stream(context.Background(), a, w, configs, spec, sink); err != nil {
		return nil, nil, err
	}
	return reports, pts, nil
}

// gpuConfig is the (BS, G, R) triple behind a GPU sweep report.
func gpuConfig(r campaign.PointReport) gpusim.MatMulConfig {
	return r.Config.(device.GPUPoint).C
}

// filterBS keeps points whose config (by matching report order) has BS
// in [lo, hi].
func filterBS(reports []campaign.PointReport, pts []pareto.Point, lo, hi int) []pareto.Point {
	var out []pareto.Point
	for i, r := range reports {
		if bs := gpuConfig(r).BS; bs >= lo && bs <= hi {
			out = append(out, pts[i])
		}
	}
	return out
}

// frontTable renders a Pareto front with its trade-offs.
func frontTable(title string, front []pareto.Point) (*Table, error) {
	t := &Table{
		Title:   title,
		Columns: []string{"config", "time_s", "dyn_energy_j", "degradation_pct", "saving_pct"},
	}
	tos, err := pareto.TradeOffs(front)
	if err != nil {
		return nil, err
	}
	for _, to := range tos {
		t.AddRow(to.Point.Label, f(to.Point.Time, 4), f(to.Point.Energy, 1),
			f(to.PerfDegradationPct, 1), f(to.EnergySavingPct, 1))
	}
	return t, nil
}
