package meter

import "testing"

// TestMeasureRunSteadyStateAllocs: the statistical loop calls
// MeasureRun dozens of times per point, so its sample buffers are
// meter-owned scratch — a warm measurement allocates only the Report.
func TestMeasureRunSteadyStateAllocs(t *testing.T) {
	m := NewMeter(80, 1)
	run := ConstantRun{Seconds: 120, Watts: 200}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.MeasureRun(run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("MeasureRun allocates %.1f objects per run in steady state, want <= 2 (the report)", allocs)
	}
}

// TestRecordTraceSurvivesNextMeasurement: when a trace is recorded the
// report owns the sample slices — a later measurement on the same meter
// must not overwrite them through the recycled scratch.
func TestRecordTraceSurvivesNextMeasurement(t *testing.T) {
	m := NewMeter(80, 1)
	m.RecordTrace = true
	first, err := m.MeasureRun(ConstantRun{Seconds: 10, Watts: 200})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), first.SamplePowers...)
	if _, err := m.MeasureRun(ConstantRun{Seconds: 10, Watts: 900}); err != nil {
		t.Fatal(err)
	}
	for i, p := range first.SamplePowers {
		if p != snapshot[i] {
			t.Fatalf("sample %d of the recorded trace changed from %v to %v after a later measurement", i, snapshot[i], p)
		}
	}
}

// TestResetReusedMeterAllocs: resetting a meter that already owns a
// generator reseeds it in place and allocates nothing.
func TestResetReusedMeterAllocs(t *testing.T) {
	m := NewMeter(80, 1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		m.Reset(80, seed)
	})
	if allocs != 0 {
		t.Errorf("Reset on a reused meter allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkMeterReset is the per-point constant cost of a pooled meter:
// restoring the defaults and reseeding the generator.
func BenchmarkMeterReset(b *testing.B) {
	m := NewMeter(80, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(80, int64(i))
	}
}
