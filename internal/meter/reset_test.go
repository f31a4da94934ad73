package meter

import (
	"math"
	"testing"
)

// sameReport reports whether two reports agree bit for bit, recorded
// samples included.
func sameReport(a, b *Report) bool {
	bits := math.Float64bits
	if bits(a.Seconds) != bits(b.Seconds) || bits(a.TotalEnergyJ) != bits(b.TotalEnergyJ) ||
		bits(a.StaticEnergyJ) != bits(b.StaticEnergyJ) || bits(a.DynamicEnergyJ) != bits(b.DynamicEnergyJ) ||
		bits(a.AvgPowerW) != bits(b.AvgPowerW) || a.Samples != b.Samples || a.Spikes != b.Spikes ||
		len(a.SampleTimes) != len(b.SampleTimes) || len(a.SamplePowers) != len(b.SamplePowers) {
		return false
	}
	for i := range a.SampleTimes {
		if bits(a.SampleTimes[i]) != bits(b.SampleTimes[i]) || bits(a.SamplePowers[i]) != bits(b.SamplePowers[i]) {
			return false
		}
	}
	return true
}

// TestResetMatchesNewMeter: a meter reset after arbitrary use — recorded
// traces, spikes, a custom interval and noise level — is
// indistinguishable from NewMeter with the same idle power and seed: the
// same defaults, and the same reports bit for bit through a sequence of
// measurements under default and customized settings. A zero Meter
// reset for the first time is too.
func TestResetMatchesNewMeter(t *testing.T) {
	run := (&SegmentRun{}).AddSegment(3, 180).AddSegment(5, 260).AddSegment(0.5, 120)

	used := NewMeter(50, 99)
	used.RecordTrace = true
	used.SpikeProb, used.SpikeFactor = 0.3, 2
	used.SampleInterval, used.NoiseFrac = 0.01, 0.05
	for i := 0; i < 3; i++ {
		if _, err := used.MeasureRun(run); err != nil {
			t.Fatal(err)
		}
	}
	used.Reset(80, 7)
	var zero Meter
	zero.Reset(80, 7)

	for name, m := range map[string]*Meter{"reset after use": used, "reset zero meter": &zero} {
		fresh := NewMeter(80, 7)
		if m.IdlePowerW != fresh.IdlePowerW || m.SampleInterval != fresh.SampleInterval ||
			m.NoiseFrac != fresh.NoiseFrac || m.SpikeProb != fresh.SpikeProb ||
			m.SpikeFactor != fresh.SpikeFactor || m.RecordTrace != fresh.RecordTrace {
			t.Fatalf("%s: settings %+v, want NewMeter's %+v", name, m, fresh)
		}
		// Two measurements at the defaults, then two with every knob
		// turned: the generators must stay in lockstep throughout.
		for step := 0; step < 4; step++ {
			if step == 2 {
				for _, x := range []*Meter{m, fresh} {
					x.RecordTrace = true
					x.SpikeProb = 0.25
					x.SampleInterval = 0.02
				}
			}
			a, err := m.MeasureRun(run)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.MeasureRun(run)
			if err != nil {
				t.Fatal(err)
			}
			if !sameReport(a, b) {
				t.Fatalf("%s: measurement %d differs from a new meter's:\n got %+v\nwant %+v", name, step, a, b)
			}
		}
	}
}

// TestResetKeepsScratchAllocationFree: a reset reuses the generator and
// sample scratch, so resetting and measuring a warm meter allocates no
// more than a warm measurement alone — the reason campaign points draw
// meters from a pool.
func TestResetKeepsScratchAllocationFree(t *testing.T) {
	m := NewMeter(80, 1)
	run := ConstantRun{Seconds: 120, Watts: 200}
	if _, err := m.MeasureRun(run); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(10, func() {
		seed++
		m.Reset(80, seed)
		if _, err := m.MeasureRun(run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Reset+MeasureRun allocates %.1f objects, want <= 2 (the report, as for MeasureRun alone)", allocs)
	}
}
