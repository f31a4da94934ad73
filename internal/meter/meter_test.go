package meter

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestConstantRunExactEnergy(t *testing.T) {
	m := NewMeter(60, 1)
	m.NoiseFrac = 0 // exact sampling
	rep, err := m.MeasureRun(ConstantRun{Seconds: 10, Watts: 160})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.TotalEnergyJ-1600) > 1e-9 {
		t.Errorf("TotalEnergyJ = %v, want 1600", rep.TotalEnergyJ)
	}
	if math.Abs(rep.StaticEnergyJ-600) > 1e-9 {
		t.Errorf("StaticEnergyJ = %v, want 600", rep.StaticEnergyJ)
	}
	if math.Abs(rep.DynamicEnergyJ-1000) > 1e-9 {
		t.Errorf("DynamicEnergyJ = %v, want 1000", rep.DynamicEnergyJ)
	}
	if math.Abs(rep.AvgPowerW-160) > 1e-9 {
		t.Errorf("AvgPowerW = %v, want 160", rep.AvgPowerW)
	}
}

func TestSegmentRun(t *testing.T) {
	var s SegmentRun
	s.AddSegment(2, 100).AddSegment(3, 200).AddSegment(-1, 999)
	if got := s.Duration(); got != 5 {
		t.Errorf("Duration = %v, want 5", got)
	}
	if got := s.PowerAt(1); got != 100 {
		t.Errorf("PowerAt(1) = %v, want 100", got)
	}
	if got := s.PowerAt(4); got != 200 {
		t.Errorf("PowerAt(4) = %v, want 200", got)
	}
	if got := s.PowerAt(99); got != 200 {
		t.Errorf("PowerAt beyond end = %v, want last level 200", got)
	}
	if got := TrueEnergy(&s); got != 800 {
		t.Errorf("TrueEnergy = %v, want 800", got)
	}
}

func TestEmptySegmentRunPower(t *testing.T) {
	var s SegmentRun
	if got := s.PowerAt(0); got != 0 {
		t.Errorf("empty SegmentRun power = %v, want 0", got)
	}
}

func TestMeasureRunSegmented(t *testing.T) {
	m := NewMeter(50, 1)
	m.NoiseFrac = 0
	m.SampleInterval = 0.25
	var s SegmentRun
	s.AddSegment(4, 150).AddSegment(6, 250)
	rep, err := m.MeasureRun(&s)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoidal sampling of a step function at the boundary sample
	// splits the step; with 0.25 s samples the error is at most half a
	// sample of the step height: 0.25/2 × 100 = 12.5 J.
	want := 4*150.0 + 6*250.0
	if math.Abs(rep.TotalEnergyJ-want) > 13 {
		t.Errorf("TotalEnergyJ = %v, want %v ± 13", rep.TotalEnergyJ, want)
	}
}

func TestMeasureRunErrors(t *testing.T) {
	m := NewMeter(60, 1)
	if _, err := m.MeasureRun(ConstantRun{Seconds: 0, Watts: 100}); err == nil {
		t.Error("zero duration: want error")
	}
	if _, err := m.MeasureRun(ConstantRun{Seconds: -5, Watts: 100}); err == nil {
		t.Error("negative duration: want error")
	}
	if _, err := m.MeasureRun(ConstantRun{Seconds: math.NaN(), Watts: 100}); err == nil {
		t.Error("NaN duration: want error")
	}
}

func TestSubSampleRun(t *testing.T) {
	// A 0.3 s run with 1 s sampling must still be measured (endpoint
	// samples).
	m := NewMeter(60, 1)
	m.NoiseFrac = 0
	rep, err := m.MeasureRun(ConstantRun{Seconds: 0.3, Watts: 200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.TotalEnergyJ-60) > 1e-9 {
		t.Errorf("TotalEnergyJ = %v, want 60", rep.TotalEnergyJ)
	}
	if rep.Samples < 2 {
		t.Errorf("Samples = %d, want >= 2", rep.Samples)
	}
}

func TestNoiseIsDeterministicPerSeed(t *testing.T) {
	run := ConstantRun{Seconds: 30, Watts: 180}
	a, err := NewMeter(60, 42).MeasureRun(run)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMeter(60, 42).MeasureRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergyJ != b.TotalEnergyJ {
		t.Error("same seed must reproduce identical measurements")
	}
	c, err := NewMeter(60, 43).MeasureRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergyJ == c.TotalEnergyJ {
		t.Error("different seeds should differ")
	}
}

func TestNoiseAveragesOut(t *testing.T) {
	m := NewMeter(60, 7)
	run := ConstantRun{Seconds: 600, Watts: 200}
	rep, err := m.MeasureRun(run)
	if err != nil {
		t.Fatal(err)
	}
	// 600 samples of 1% noise: mean power within ~0.2%.
	if math.Abs(rep.AvgPowerW-200) > 1.0 {
		t.Errorf("AvgPowerW = %v, want ~200", rep.AvgPowerW)
	}
}

func TestMeasureIdle(t *testing.T) {
	m := NewMeter(75, 3)
	p, err := m.MeasureIdle(300)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-75) > 1 {
		t.Errorf("idle power = %v, want ~75", p)
	}
}

func TestBaselineDrift(t *testing.T) {
	m := NewMeter(80, 5)
	drift, ok, err := m.BaselineDrift(300, 300, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("stable baseline flagged as drifting: %.4f", drift)
	}
	// A drifting node: raise the idle power between the two windows.
	m2 := NewMeter(80, 5)
	before, err := m2.MeasureIdle(300)
	if err != nil {
		t.Fatal(err)
	}
	m2.IdlePowerW = 90
	after, err := m2.MeasureIdle(300)
	if err != nil {
		t.Fatal(err)
	}
	driftManual := (after - before) / before
	if driftManual < 0.08 {
		t.Errorf("expected ~12%% drift, got %.3f", driftManual)
	}
	if _, _, err := m.BaselineDrift(10, 10, 0); err == nil {
		t.Error("zero tolerance: want error")
	}
}

func TestTrueEnergyGenericIntegration(t *testing.T) {
	// A run with linearly ramping power: E = ∫(100 + 10t)dt over [0,4]
	// = 400 + 80 = 480.
	r := rampRun{}
	if got := TrueEnergy(r); math.Abs(got-480) > 0.1 {
		t.Errorf("TrueEnergy(ramp) = %v, want 480", got)
	}
}

type rampRun struct{}

func (rampRun) Duration() float64         { return 4 }
func (rampRun) PowerAt(t float64) float64 { return 100 + 10*t }

func TestDynamicPlusStaticEqualsTotalProperty(t *testing.T) {
	check := func(seed int64, secs, watts, idle float64) bool {
		secs = 1 + math.Abs(math.Mod(secs, 100))
		watts = 50 + math.Abs(math.Mod(watts, 300))
		idle = 10 + math.Abs(math.Mod(idle, 100))
		m := NewMeter(idle, seed)
		rep, err := m.MeasureRun(ConstantRun{Seconds: secs, Watts: watts})
		if err != nil {
			return false
		}
		return math.Abs(rep.DynamicEnergyJ+rep.StaticEnergyJ-rep.TotalEnergyJ) < 1e-6*rep.TotalEnergyJ+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// MeasureIdle samples the node for the given duration with no application
// running and returns the observed average idle power. It is how a real
// HCLWattsUp deployment obtains the baseline this meter was constructed
// with; provided for end-to-end methodology tests.
func (m *Meter) MeasureIdle(seconds float64) (float64, error) {
	rep, err := m.MeasureRun(ConstantRun{Seconds: seconds, Watts: m.IdlePowerW})
	if err != nil {
		return 0, err
	}
	return rep.AvgPowerW, nil
}

// BaselineDrift measures the idle baseline before and after a campaign
// window and reports the relative drift — the check real methodology runs
// to catch background services or thermal creep corrupting the
// static/dynamic decomposition. ok is false when |drift| exceeds tol
// (e.g. 0.02 for 2%).
func (m *Meter) BaselineDrift(beforeSeconds, afterSeconds, tol float64) (driftFrac float64, ok bool, err error) {
	if tol <= 0 {
		return 0, false, errors.New("meter: tolerance must be positive")
	}
	before, err := m.MeasureIdle(beforeSeconds)
	if err != nil {
		return 0, false, err
	}
	after, err := m.MeasureIdle(afterSeconds)
	if err != nil {
		return 0, false, err
	}
	if before <= 0 {
		return 0, false, errors.New("meter: non-positive baseline")
	}
	driftFrac = (after - before) / before
	mag := driftFrac
	if mag < 0 {
		mag = -mag
	}
	return driftFrac, mag <= tol, nil
}
