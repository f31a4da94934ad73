package cpusim

import (
	"slices"
	"testing"
)

func TestRunFFT2DValidation(t *testing.T) {
	m := NewHaswell()
	if _, err := m.RunFFT2D(1, 4); err == nil {
		t.Error("N=1: want error")
	}
	if _, err := m.RunFFT2D(1024, 0); err == nil {
		t.Error("threads=0: want error")
	}
	if _, err := m.RunFFT2D(1024, 49); err == nil {
		t.Error("threads beyond logical cores: want error")
	}
}

func TestRunFFT2DSanity(t *testing.T) {
	m := NewHaswell()
	for _, n := range []int{128, 512, 2048, 8192, 32768} {
		r, err := m.RunFFT2D(n, 24)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if r.Seconds <= 0 || r.DynPowerW <= 0 || r.DynEnergyJ <= 0 || r.Work <= 0 {
			t.Errorf("N=%d: non-positive outputs %+v", n, r)
		}
		if r.DynPowerW > 250 {
			t.Errorf("N=%d: implausible dynamic power %v", n, r.DynPowerW)
		}
	}
}

func TestCPUFFTStrongEPViolated(t *testing.T) {
	// Fig 1 (CPU curve): strong EP demands E_d = c·W for a constant c, so
	// the energy-per-work ratio must be (nearly) constant. Here it must
	// not be.
	m := NewHaswell()
	var ratios []float64
	for n := 128; n <= 32768; n *= 2 {
		r, err := m.RunFFT2D(n, 24)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, r.DynEnergyJ/r.Work)
	}
	if spread := slices.Max(ratios) / slices.Min(ratios); spread < 1.3 {
		t.Errorf("E_d/W spread = %.3f, want > 1.3 (strong EP should be violated)", spread)
	}
}

func TestCPUFFTEnergyMonotoneInWork(t *testing.T) {
	m := NewHaswell()
	prev := 0.0
	for n := 256; n <= 16384; n *= 2 {
		r, err := m.RunFFT2D(n, 24)
		if err != nil {
			t.Fatal(err)
		}
		if r.DynEnergyJ <= prev {
			t.Errorf("N=%d: energy should grow with work", n)
		}
		prev = r.DynEnergyJ
	}
}

func TestCPUFFTThreadScaling(t *testing.T) {
	// More threads should not be slower for a large transform.
	m := NewHaswell()
	r1, err := m.RunFFT2D(8192, 1)
	if err != nil {
		t.Fatal(err)
	}
	r24, err := m.RunFFT2D(8192, 24)
	if err != nil {
		t.Fatal(err)
	}
	if r24.Seconds >= r1.Seconds {
		t.Errorf("24 threads (%.3fs) should beat 1 thread (%.3fs)", r24.Seconds, r1.Seconds)
	}
}

func TestCPUFFTRunAdapter(t *testing.T) {
	m := NewHaswell()
	r, err := m.RunFFT2D(4096, 24)
	if err != nil {
		t.Fatal(err)
	}
	run := r.Run(m.Spec.IdlePowerW)
	if run.Duration() != r.Seconds {
		t.Error("adapter duration mismatch")
	}
}
