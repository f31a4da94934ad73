package energyprop_test

import (
	"testing"

	"energyprop"
)

// The facade tests exercise the library exactly as the README's quick
// start does.

func TestFacadeQuickStartFlow(t *testing.T) {
	dev := energyprop.NewP100()
	sweep, err := dev.Sweep(energyprop.MatMulWorkload{N: 10240, Products: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]energyprop.Point, len(sweep))
	for i, r := range sweep {
		pts[i] = energyprop.Point{Label: r.Config.String(), Time: r.Seconds, Energy: r.DynEnergyJ}
	}
	rep, err := energyprop.AnalyzeWeakEP(pts, 0.025)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Error("P100 must violate weak EP")
	}
	if !rep.OpportunityExists {
		t.Error("P100 must expose a bi-objective opportunity")
	}
	if rep.BestTradeOff.EnergySavingPct < 40 {
		t.Errorf("best saving %.1f%%, want ~50%%", rep.BestTradeOff.EnergySavingPct)
	}
}

func TestFacadeSpecs(t *testing.T) {
	if energyprop.HaswellSpec().LogicalCores() != 48 {
		t.Error("Haswell should expose 48 logical cores")
	}
	if energyprop.K40cSpec().TDPWatts != 235 {
		t.Error("K40c TDP mismatch")
	}
	if energyprop.P100Spec().TDPWatts != 250 {
		t.Error("P100 TDP mismatch")
	}
}

func TestFacadeTheorem(t *testing.T) {
	m := energyprop.TwoCoreModel{A: 2, B: 3}
	res, err := m.Theorem(0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HoldsE2GreaterE1 || !res.HoldsE3GreaterE2 {
		t.Error("theorem inequalities must hold via the facade")
	}
}

func TestFacadeMeasurement(t *testing.T) {
	dev := energyprop.NewK40c()
	r, err := dev.RunMatMul(
		energyprop.MatMulWorkload{N: 8192, Products: 8},
		energyprop.MatMulConfig{BS: 32, G: 1, R: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := energyprop.NewMeter(dev.Spec.IdlePowerW, 7)
	spec := energyprop.DefaultMeasureSpec()
	spec.CheckNormality = false
	meas, err := energyprop.Measure(spec, func() (float64, error) {
		rep, err := m.MeasureRun(r.Run(dev.Spec.IdlePowerW))
		if err != nil {
			return 0, err
		}
		return rep.DynamicEnergyJ, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := (meas.Mean - r.DynEnergyJ) / r.DynEnergyJ
	if rel > 0.05 || rel < -0.05 {
		t.Errorf("measured mean off by %.1f%%", 100*rel)
	}
}

func TestFacadeDistribution(t *testing.T) {
	ds, err := energyprop.DistributeAcross(energyprop.PaperPlatform(2048), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) < 2 {
		t.Fatalf("front %v: want a trade-off across the paper platform", ds)
	}
	// ε-constraint over the distribution front.
	pts := make([]energyprop.Point, len(ds))
	for i, d := range ds {
		pts[i] = energyprop.Point{Label: "d", Time: d.TimeS, Energy: d.EnergyJ}
	}
	pick, err := energyprop.CheapestWithin(pts, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pick.Energy <= 0 {
		t.Error("bad pick")
	}
}

func TestFacadeRanksAndHaswell(t *testing.T) {
	pts := []energyprop.Point{
		{Label: "a", Time: 1, Energy: 2},
		{Label: "b", Time: 2, Energy: 1},
		{Label: "c", Time: 2, Energy: 3},
	}
	ranks := energyprop.Ranks(pts)
	if len(ranks) != 2 {
		t.Fatalf("ranks = %d, want 2", len(ranks))
	}
	m := energyprop.NewHaswell()
	r, err := m.RunGEMM(energyprop.GEMMApp{
		N:      4096,
		Config: energyprop.ThreadgroupConfig{Groups: 2, ThreadsPerGroup: 4},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.GFLOPs <= 0 {
		t.Error("Haswell run must report positive performance")
	}
}
