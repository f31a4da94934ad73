package campaign

import (
	"bytes"
	"context"
	"math"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/pareto"
	"energyprop/internal/store"
)

// smallWorkload keeps campaign tests fast: few configurations.
func smallWorkload() device.Workload {
	return device.Workload{N: 4096, Products: 2}
}

// openDev opens a registered device or fails the test.
func openDev(t testing.TB, name string) device.Device {
	t.Helper()
	d, err := device.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runAll measures every configuration of the workload: the full-sweep
// campaign most tests exercise.
func runAll(dev device.Device, w device.Workload, spec Spec) (*Result, error) {
	configs, err := dev.Configs(w)
	if err != nil {
		return nil, err
	}
	return RunConfigs(context.Background(), dev, w, configs, spec)
}

// configByKey picks one enumerated configuration by its canonical key.
func configByKey(t testing.TB, dev device.Device, w device.Workload, key string) device.Config {
	t.Helper()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		if c.Key() == key {
			return c
		}
	}
	t.Fatalf("no config %q on %s", key, dev.Name())
	return nil
}

func TestRunValidation(t *testing.T) {
	if _, err := RunConfigs(context.Background(), nil, smallWorkload(), nil, DefaultSpec(1)); err == nil {
		t.Error("nil device: want error")
	}
	spec := DefaultSpec(1)
	spec.NoiseFrac = -1
	if _, err := runAll(openDev(t, "p100"), smallWorkload(), spec); err == nil {
		t.Error("negative noise: want error")
	}
	if _, err := runAll(openDev(t, "p100"), device.Workload{N: 0, Products: 1}, DefaultSpec(1)); err == nil {
		t.Error("bad workload: want error")
	}
}

func TestCampaignMeasuresAccurately(t *testing.T) {
	res, err := runAll(openDev(t, "p100"), smallWorkload(), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	if res.TotalRuns < len(res.Points)*2 {
		t.Error("each point needs repeated runs")
	}
	for _, p := range res.Points {
		rel := math.Abs(p.MeasuredEnergyJ-p.TrueEnergyJ) / p.TrueEnergyJ
		if rel > 0.05 {
			t.Errorf("%v: measured %.1fJ vs true %.1fJ (%.1f%% off)",
				p.Config, p.MeasuredEnergyJ, p.TrueEnergyJ, 100*rel)
		}
		if p.Runs < 2 {
			t.Errorf("%v: %d runs, want >= 2", p.Config, p.Runs)
		}
	}
}

func TestCampaignDeterministicPerSeed(t *testing.T) {
	dev := openDev(t, "p100")
	a, err := runAll(dev, smallWorkload(), DefaultSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runAll(dev, smallWorkload(), DefaultSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].MeasuredEnergyJ != b.Points[i].MeasuredEnergyJ {
			t.Fatal("same seed must reproduce measurements")
		}
	}
	c, err := runAll(dev, smallWorkload(), DefaultSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Points {
		if a.Points[i].MeasuredEnergyJ != c.Points[i].MeasuredEnergyJ {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestCampaignAnalyticMode(t *testing.T) {
	// The analytic (constant-power) profile is the untraced mode: campaigns
	// run on it through the same engine via the AnalyticProvider variant.
	ap, ok := openDev(t, "k40c").(device.AnalyticProvider)
	if !ok {
		t.Fatal("k40c does not provide an analytic variant")
	}
	res, err := runAll(ap.Analytic(), smallWorkload(), DefaultSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
}

func TestMeasuredFrontMatchesTrueFront(t *testing.T) {
	// The methodology's point: measured values must support the same
	// bi-objective conclusions as the ground truth.
	w := device.Workload{N: 10240, Products: 8}
	res, err := runAll(openDev(t, "p100"), w, DefaultSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	var measured, truth []pareto.Point
	for _, p := range res.Points {
		measured = append(measured, pareto.Point{
			Label: p.Config.String(), Time: p.TrueSeconds, Energy: p.MeasuredEnergyJ})
		truth = append(truth, pareto.Point{
			Label: p.Config.String(), Time: p.TrueSeconds, Energy: p.TrueEnergyJ})
	}
	mf, tf := pareto.Front(measured), pareto.Front(truth)
	if d := len(mf) - len(tf); d < -1 || d > 1 {
		t.Errorf("measured front %d points vs true front %d", len(mf), len(tf))
	}
	mBest, err := pareto.BestTradeOff(mf)
	if err != nil {
		t.Fatal(err)
	}
	tBest, err := pareto.BestTradeOff(tf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mBest.EnergySavingPct-tBest.EnergySavingPct) > 5 {
		t.Errorf("measured best saving %.1f%% vs true %.1f%%",
			mBest.EnergySavingPct, tBest.EnergySavingPct)
	}
}

func TestCampaignRobustToSpikes(t *testing.T) {
	// With 3% transient spikes per sample, the robust pipeline (MAD
	// rejection over the per-run energies) stays close to the truth.
	spec := DefaultSpec(13)
	spec.SpikeProb = 0.03
	spec.Measure.RejectOutliersK = 3
	spec.Measure.MinRuns = 8
	res, err := runAll(openDev(t, "p100"), smallWorkload(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		rel := math.Abs(p.MeasuredEnergyJ-p.TrueEnergyJ) / p.TrueEnergyJ
		if rel > 0.08 {
			t.Errorf("%v: measured %.1f vs true %.1f (%.1f%% off) under spikes",
				p.Config, p.MeasuredEnergyJ, p.TrueEnergyJ, 100*rel)
		}
	}
}

// TestCampaignRecordRoundTrip: a campaign streamed through a
// RecordSink loads back as a valid record with every point.
func TestCampaignRecordRoundTrip(t *testing.T) {
	dev := openDev(t, "k40c")
	configs, err := dev.Configs(smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.LoadCampaign(bytes.NewReader(streamRecordBytes(t, dev, smallWorkload(), DefaultSpec(9))))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != "gpu" {
		t.Errorf("record kind %q, want gpu", loaded.Kind)
	}
	if len(loaded.Results) != len(configs) {
		t.Errorf("record round trip kept %d of %d points", len(loaded.Results), len(configs))
	}
}
