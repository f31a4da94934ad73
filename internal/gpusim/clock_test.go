package gpusim

import (
	"fmt"
	"testing"
)

// GPU clock scaling (the nvidia-smi -lgc analog): the system-level knob
// on the GPU side, complementing the application-level (BS, G, R)
// variables. Core throughput scales with the clock; memory bandwidth does
// not; core power follows f·V² ≈ f³.

// ClockLevels returns the device's discrete core-clock operating points in
// MHz, from 60% of base to base.
func (d *Device) ClockLevels() []float64 {
	base := d.Spec.BaseClockMHz
	var out []float64
	for _, r := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		out = append(out, base*r)
	}
	return out
}

// RunMatMulAtClock runs one configuration with the core clock pinned at
// clockMHz (between 40% and 120% of the base clock).
func (d *Device) RunMatMulAtClock(w MatMulWorkload, c MatMulConfig, clockMHz float64) (*Result, error) {
	base := d.Spec.BaseClockMHz
	if clockMHz < 0.4*base || clockMHz > 1.2*base {
		return nil, fmt.Errorf("gpusim: clock %.0f MHz outside 40%%..120%% of base %.0f MHz", clockMHz, base)
	}
	rel := clockMHz / base
	// Clone the device with a scaled spec: compute throughput and the
	// clock-domain power components scale; memory bandwidth and the
	// fetch-engine threshold do not.
	spec := *d.Spec
	spec.BaseClockMHz = clockMHz
	spec.PeakGFLOPsFP64 *= rel
	v := rel * rel * rel
	spec.ComputePowerW *= v
	spec.SMemPowerW *= v
	spec.BasePowerW *= 0.4 + 0.6*rel
	scaled := &Device{Spec: &spec, cal: d.cal, fetchDisabled: d.fetchDisabled, jitter: d.jitter}
	return scaled.RunMatMul(w, c)
}

func TestClockLevels(t *testing.T) {
	d := NewP100()
	levels := d.ClockLevels()
	if len(levels) != 5 {
		t.Fatalf("%d levels, want 5", len(levels))
	}
	if levels[len(levels)-1] != d.Spec.BaseClockMHz {
		t.Error("top level should be the base clock")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Error("levels must be increasing")
		}
	}
}

func TestRunMatMulAtClockValidation(t *testing.T) {
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 8}
	c := MatMulConfig{BS: 32, G: 1, R: 8}
	if _, err := d.RunMatMulAtClock(w, c, d.Spec.BaseClockMHz*0.2); err == nil {
		t.Error("too-low clock: want error")
	}
	if _, err := d.RunMatMulAtClock(w, c, d.Spec.BaseClockMHz*1.5); err == nil {
		t.Error("too-high clock: want error")
	}
}

func TestBaseClockMatchesRunMatMul(t *testing.T) {
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 8}
	c := MatMulConfig{BS: 24, G: 1, R: 8}
	a, err := d.RunMatMul(w, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.RunMatMulAtClock(w, c, d.Spec.BaseClockMHz)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.DynEnergyJ != b.DynEnergyJ {
		t.Error("base clock must reproduce RunMatMul exactly")
	}
}

func TestDownclockSlowerButCheaperOnComputeBound(t *testing.T) {
	// BS=32 is compute/shared-memory bound: the clock governs both time
	// and power; energy should fall (cubic power vs linear time).
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 8}
	c := MatMulConfig{BS: 32, G: 1, R: 8}
	full, err := d.RunMatMulAtClock(w, c, d.Spec.BaseClockMHz)
	if err != nil {
		t.Fatal(err)
	}
	down, err := d.RunMatMulAtClock(w, c, d.Spec.BaseClockMHz*0.6)
	if err != nil {
		t.Fatal(err)
	}
	if down.Seconds <= full.Seconds {
		t.Error("downclocked run must be slower")
	}
	if down.DynEnergyJ >= full.DynEnergyJ {
		t.Errorf("downclocked energy %v should be below full-clock %v", down.DynEnergyJ, full.DynEnergyJ)
	}
}

func TestDownclockBarelySlowsMemoryBound(t *testing.T) {
	// BS=2 is severely memory-bound: the clock barely affects time.
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 2}
	c := MatMulConfig{BS: 2, G: 1, R: 2}
	full, err := d.RunMatMulAtClock(w, c, d.Spec.BaseClockMHz)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Profile.MemoryBound {
		t.Skip("BS=2 unexpectedly not memory-bound")
	}
	down, err := d.RunMatMulAtClock(w, c, d.Spec.BaseClockMHz*0.8)
	if err != nil {
		t.Fatal(err)
	}
	if down.Seconds > full.Seconds*1.05 {
		t.Errorf("memory-bound slowdown %.1f%%, want < 5%%", 100*(down.Seconds/full.Seconds-1))
	}
}
