package gpusim

import "fmt"

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

// ClockSweep runs one configuration at every clock level, in level
// order, and returns the results with the levels.
func (d *Device) ClockSweep(w MatMulWorkload, c MatMulConfig) ([]*Result, []float64, error) {
	levels := d.ClockLevels()
	out := make([]*Result, len(levels))
	for i, mhz := range levels {
		r, err := d.RunMatMulAtClock(w, c, mhz)
		if err != nil {
			return nil, nil, err
		}
		out[i] = r
	}
	return out, levels, nil
}
