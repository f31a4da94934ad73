package counters

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"energyprop/internal/gpusim"
)

// profileFor builds a kernel profile and run result on the simulated P100.
func profileFor(t *testing.T, n, bs, g, products int) (gpusim.KernelProfile, *gpusim.Result) {
	t.Helper()
	d := gpusim.NewP100()
	r, err := d.RunMatMul(
		gpusim.MatMulWorkload{N: n, Products: products},
		gpusim.MatMulConfig{BS: bs, G: g, R: products / g},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r.Profile, r
}

func collectFor(t *testing.T, n, bs, g, products int) Counts {
	t.Helper()
	p, r := profileFor(t, n, bs, g, products)
	c, err := Collect(p, products, r.Seconds, 1328, 56)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCollectValidation(t *testing.T) {
	p, r := profileFor(t, 1024, 16, 1, 1)
	if _, err := Collect(p, 0, r.Seconds, 1328, 56); err == nil {
		t.Error("products=0: want error")
	}
	if _, err := Collect(p, 1, 0, 1328, 56); err == nil {
		t.Error("seconds=0: want error")
	}
	if _, err := Collect(p, 1, r.Seconds, 0, 56); err == nil {
		t.Error("clock=0: want error")
	}
	if _, err := Collect(p, 1, r.Seconds, 1328, 0); err == nil {
		t.Error("sms=0: want error")
	}
}

func TestCollectKnownFlopCount(t *testing.T) {
	c := collectFor(t, 1024, 16, 1, 2)
	want := 2.0 * 2 * 1024 * 1024 * 1024 // 2 products × 2N³
	if math.Abs(c[FlopCountDP]-want) > 1e-6*want {
		t.Errorf("flop_count_dp = %v, want %v", c[FlopCountDP], want)
	}
}

func TestCollectAllEventsPresent(t *testing.T) {
	c := collectFor(t, 1024, 16, 1, 1)
	for _, e := range AllEvents() {
		v, ok := c[e]
		if !ok {
			t.Errorf("event %s missing", e)
			continue
		}
		if v < 0 || math.IsNaN(v) {
			t.Errorf("event %s has bad value %v", e, v)
		}
	}
	if c[SMEfficiency] > 100 {
		t.Errorf("sm_efficiency %v%% > 100%%", c[SMEfficiency])
	}
}

func TestOverflowMatchesPaperThreshold(t *testing.T) {
	// The paper: "we observed many key events and metrics overflow for
	// large matrix sizes (N > 2048)". flop_count_dp for one product at
	// N=2048 is 2·2048³ ≈ 1.7e10 > 2³².
	small := collectFor(t, 1024, 16, 1, 1)
	if evs := Overflowed(small); len(evs) != 0 {
		t.Errorf("N=1024 should not overflow, got %v", evs)
	}
	big := collectFor(t, 4096, 16, 1, 1)
	evs := Overflowed(big)
	found := false
	for _, e := range evs {
		if e == FlopCountDP {
			found = true
		}
	}
	if !found {
		t.Errorf("N=4096 flop_count_dp should overflow, got %v", evs)
	}
}

func TestAdditivityRawCountsAdditive(t *testing.T) {
	// A compound application (G=2, one kernel) versus its two base
	// applications (G=1 each): raw counts must be additive within a small
	// tolerance; the ratio metric must not be.
	base := collectFor(t, 2048, 16, 1, 1)
	compound := collectFor(t, 2048, 16, 2, 2)
	rep, err := Additivity(compound, base, base)
	if err != nil {
		t.Fatal(err)
	}
	additive := rep.Additive(0.02)
	wantAdditive := map[Event]bool{
		FlopCountDP: true, DRAMReadTransactions: true, DRAMWriteTransactions: true,
		SharedLoadTransactions: true, WarpsLaunched: true,
	}
	for e := range wantAdditive {
		found := false
		for _, a := range additive {
			if a == e {
				found = true
			}
		}
		if !found {
			t.Errorf("event %s should pass the additivity test (err=%v)", e, rep.RelError[e])
		}
	}
	nonAdd := rep.NonAdditive(0.02)
	foundSM := false
	for _, e := range nonAdd {
		if e == SMEfficiency {
			foundSM = true
		}
	}
	if !foundSM {
		t.Errorf("sm_efficiency (a ratio) must fail the additivity test; non-additive: %v", nonAdd)
	}
}

func TestAdditivityErrors(t *testing.T) {
	if _, err := Additivity(Counts{FlopCountDP: 1}); err == nil {
		t.Error("no bases: want error")
	}
	if _, err := Additivity(Counts{FlopCountDP: 1}, Counts{}); err == nil {
		t.Error("missing event in base: want error")
	}
	rep, err := Additivity(Counts{FlopCountDP: 1}, Counts{FlopCountDP: 0}, Counts{FlopCountDP: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.RelError[FlopCountDP], 1) {
		t.Error("nonzero compound over zero base sum should be +Inf error")
	}
	rep, err = Additivity(Counts{FlopCountDP: 0}, Counts{FlopCountDP: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RelError[FlopCountDP] != 0 {
		t.Error("0 vs 0 should be zero error")
	}
}

func TestFitEnergyModelOnSweep(t *testing.T) {
	// Fit a linear energy model on the additive events over a BS sweep and
	// check it explains the simulator's energies well in-sample.
	d := gpusim.NewP100()
	var samples []Sample
	for _, products := range []int{2, 4, 8} {
		for bs := 4; bs <= 32; bs += 4 {
			r, err := d.RunMatMul(gpusim.MatMulWorkload{N: 2048, Products: products},
				gpusim.MatMulConfig{BS: bs, G: 1, R: products})
			if err != nil {
				t.Fatal(err)
			}
			c, err := Collect(r.Profile, products, r.Seconds, 1328, 56)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, Sample{Counts: c, EnergyJ: r.DynEnergyJ})
		}
	}
	events := []Event{DRAMReadTransactions, SharedLoadTransactions, ActiveCycles}
	m, err := FitEnergyModel(samples, events)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.8 {
		t.Errorf("energy model R² = %.3f, want > 0.8", m.R2)
	}
	pred, err := m.Predict(samples[0].Counts)
	if err != nil {
		t.Fatal(err)
	}
	if relErr := math.Abs(pred-samples[0].EnergyJ) / samples[0].EnergyJ; relErr > 0.5 {
		t.Errorf("prediction error %.2f, want < 0.5", relErr)
	}
}

func TestFitEnergyModelValidation(t *testing.T) {
	if _, err := FitEnergyModel(nil, []Event{FlopCountDP}); err == nil {
		t.Error("no samples: want error")
	}
	samples := []Sample{
		{Counts: Counts{FlopCountDP: 1}, EnergyJ: 1},
		{Counts: Counts{FlopCountDP: 2}, EnergyJ: 2},
		{Counts: Counts{FlopCountDP: 3}, EnergyJ: 3},
	}
	if _, err := FitEnergyModel(samples, nil); err == nil {
		t.Error("no events: want error")
	}
	if _, err := FitEnergyModel(samples, []Event{DRAMReadTransactions}); err == nil {
		t.Error("missing event in samples: want error")
	}
	m, err := FitEnergyModel(samples, []Event{FlopCountDP})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(Counts{}); err == nil {
		t.Error("predict with missing event: want error")
	}
}

func TestCorrelationWithEnergy(t *testing.T) {
	samples := []Sample{
		{Counts: Counts{FlopCountDP: 1, SMEfficiency: 50}, EnergyJ: 10},
		{Counts: Counts{FlopCountDP: 2, SMEfficiency: 50}, EnergyJ: 20},
		{Counts: Counts{FlopCountDP: 3, SMEfficiency: 50}, EnergyJ: 30},
	}
	corr, err := CorrelationWithEnergy(samples, []Event{FlopCountDP, SMEfficiency})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corr[FlopCountDP]-1) > 1e-9 {
		t.Errorf("flop correlation = %v, want 1", corr[FlopCountDP])
	}
	if _, ok := corr[SMEfficiency]; ok {
		t.Error("constant event should be skipped")
	}
	if _, err := CorrelationWithEnergy(samples[:1], nil); err == nil {
		t.Error("single sample: want error")
	}
	if _, err := CorrelationWithEnergy(samples, []Event{DRAMReadTransactions}); err == nil {
		t.Error("missing event: want error")
	}
}

// NonAdditive returns the events whose additivity error exceeds tol,
// sorted by name.
func (r *AdditivityReport) NonAdditive(tol float64) []Event {
	var out []Event
	for e, err := range r.RelError {
		if err > tol {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Predict evaluates the model on one run's counts.
func (m *EnergyModel) Predict(c Counts) (float64, error) {
	e := m.Coef[0]
	for i, ev := range m.Events {
		v, ok := c[ev]
		if !ok {
			return 0, fmt.Errorf("counters: counts missing event %s", ev)
		}
		e += m.Coef[i+1] * v
	}
	return e, nil
}
