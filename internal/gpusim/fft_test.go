package gpusim

import (
	"slices"
	"testing"
)

func TestRunFFT2DValidation(t *testing.T) {
	d := NewP100()
	if _, err := d.RunFFT2D(1); err == nil {
		t.Error("N=1: want error")
	}
}

func TestRunFFT2DSanity(t *testing.T) {
	for _, d := range []*Device{NewK40c(), NewP100()} {
		for _, n := range []int{256, 1024, 8192, 32768} {
			r, err := d.RunFFT2D(n)
			if err != nil {
				t.Fatalf("%s N=%d: %v", d.Spec.Name, n, err)
			}
			if r.Seconds <= 0 || r.DynPowerW <= 0 || r.DynEnergyJ <= 0 {
				t.Errorf("%s N=%d: non-positive outputs %+v", d.Spec.Name, n, r)
			}
			if r.Work <= 0 {
				t.Errorf("%s N=%d: non-positive work", d.Spec.Name, n)
			}
			if r.DynPowerW > d.Spec.TDPWatts {
				t.Errorf("%s N=%d: power %v exceeds TDP", d.Spec.Name, n, r.DynPowerW)
			}
		}
	}
}

func TestFFTEnergyGrowsWithWork(t *testing.T) {
	d := NewP100()
	prevW, prevE := 0.0, 0.0
	for _, n := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768} {
		r, err := d.RunFFT2D(n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Work <= prevW || r.DynEnergyJ <= prevE {
			t.Errorf("N=%d: work/energy should grow with N", n)
		}
		prevW, prevE = r.Work, r.DynEnergyJ
	}
}

func TestFFTStrongEPViolated(t *testing.T) {
	// Fig 1: strong EP demands E_d = c·W for a constant c, so the
	// energy-per-work ratio must be (nearly) constant. Here it must not
	// be.
	for _, d := range []*Device{NewK40c(), NewP100()} {
		var ratios []float64
		for n := 256; n <= 32768; n *= 2 {
			r, err := d.RunFFT2D(n)
			if err != nil {
				t.Fatal(err)
			}
			ratios = append(ratios, r.DynEnergyJ/r.Work)
		}
		if spread := slices.Max(ratios) / slices.Min(ratios); spread < 1.3 {
			t.Errorf("%s: E_d/W spread = %.3f, want > 1.3 (strong EP should be violated)",
				d.Spec.Name, spread)
		}
	}
}

func TestFFTDeterministic(t *testing.T) {
	a, _ := NewP100().RunFFT2D(4096)
	b, _ := NewP100().RunFFT2D(4096)
	if a.DynEnergyJ != b.DynEnergyJ || a.Seconds != b.Seconds {
		t.Error("FFT model must be deterministic")
	}
}

func TestFFTRunAdapter(t *testing.T) {
	d := NewK40c()
	r, err := d.RunFFT2D(4096)
	if err != nil {
		t.Fatal(err)
	}
	run := r.Run(d.Spec.IdlePowerW)
	if run.Duration() != r.Seconds {
		t.Error("adapter duration mismatch")
	}
	if got := run.PowerAt(0); got != d.Spec.IdlePowerW+r.DynPowerW {
		t.Errorf("adapter power = %v, want idle+dyn", got)
	}
}
