package hetero_test

import (
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/hetero"
	"energyprop/internal/optimize"
	"energyprop/internal/pareto"
)

// paperPlatform is the Fig 1 ensemble on the dense family.
func paperPlatform(unitN int) []hetero.Processor {
	return device.PaperPlatform(device.AppDense, unitN)
}

func TestProcessorsZeroUnits(t *testing.T) {
	for _, p := range paperPlatform(1024) {
		s, e, err := p.RunUnits(0)
		if err != nil || s != 0 || e != 0 {
			t.Errorf("%s: RunUnits(0) = (%v,%v,%v), want (0,0,nil)", p.Name(), s, e, err)
		}
		if _, _, err := p.RunUnits(-1); err == nil {
			t.Errorf("%s: negative units should error", p.Name())
		}
	}
}

func TestProcessorsScaleLinearly(t *testing.T) {
	for _, p := range paperPlatform(2048) {
		s1, e1, err := p.RunUnits(1)
		if err != nil {
			t.Fatal(err)
		}
		s3, e3, err := p.RunUnits(3)
		if err != nil {
			t.Fatal(err)
		}
		// Back-to-back units: within a few percent of linear (the GPU has
		// a fixed launch overhead).
		if s3 < 2.5*s1 || s3 > 3.5*s1 {
			t.Errorf("%s: time scaling %v -> %v not ~3x", p.Name(), s1, s3)
		}
		if e3 < 2.5*e1 || e3 > 3.5*e1 {
			t.Errorf("%s: energy scaling %v -> %v not ~3x", p.Name(), e1, e3)
		}
	}
}

func TestBuildProfileValid(t *testing.T) {
	p := paperPlatform(2048)[2] // the P100 at its energy-optimal BS=24
	prof, err := hetero.BuildProfile(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Validate(5); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	for w := 2; w <= 5; w++ {
		if prof.TimeS[w] <= prof.TimeS[w-1] {
			t.Errorf("time not increasing at %d units", w)
		}
	}
	if _, err := hetero.BuildProfile(nil, 5); err == nil {
		t.Error("nil processor: want error")
	}
	if _, err := hetero.BuildProfile(p, 0); err == nil {
		t.Error("maxUnits=0: want error")
	}
}

func TestDistributeAcrossPaperPlatform(t *testing.T) {
	ds, err := hetero.Distribute(paperPlatform(2048), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) < 2 {
		t.Fatalf("front %v: expected a genuine trade-off across heterogeneous devices", ds)
	}
	// The cheapest distribution should lean on the P100 (lowest
	// energy per unit); the units must always sum to 8.
	cheapest := ds[0]
	for _, d := range ds {
		sum := 0
		for _, u := range d.Units {
			sum += u
		}
		if sum != 8 {
			t.Fatalf("distribution %v does not sum to 8", d.Units)
		}
		if d.EnergyJ < cheapest.EnergyJ {
			cheapest = d
		}
	}
	if cheapest.Units[2] < 4 {
		t.Errorf("cheapest distribution %v should put most work on the P100", cheapest.Units)
	}
	// Trade-off analysis works end to end.
	if _, err := pareto.BestTradeOff(optimize.Points(ds)); err != nil {
		t.Fatal(err)
	}
}

func TestDistributeValidation(t *testing.T) {
	if _, err := hetero.Distribute(nil, 4); err == nil {
		t.Error("no processors: want error")
	}
}

func TestCPUProcessorAdapter(t *testing.T) {
	p := paperPlatform(2048)[0]
	s, e, err := p.RunUnits(2)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || e <= 0 {
		t.Error("non-positive outputs")
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}
