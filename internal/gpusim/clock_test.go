package gpusim

import "testing"

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

func TestClockSweep(t *testing.T) {
	d := NewK40c()
	results, levels, err := d.ClockSweep(MatMulWorkload{N: 8192, Products: 8}, MatMulConfig{BS: 32, G: 1, R: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(levels) {
		t.Fatal("length mismatch")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Seconds > results[i-1].Seconds {
			t.Error("time should not increase with clock on a compute-bound config")
		}
	}
}

func TestClockSweepError(t *testing.T) {
	d := NewP100()
	// Invalid configuration: the error must surface from the sweep.
	_, _, err := d.ClockSweep(MatMulWorkload{N: 1024, Products: 8}, MatMulConfig{BS: 64, G: 1, R: 8})
	if err == nil {
		t.Fatal("invalid config: want error")
	}
}
