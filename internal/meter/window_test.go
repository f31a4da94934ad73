package meter

import (
	"fmt"
	"math"
	"testing"
)

func TestWindowRunShape(t *testing.T) {
	w := WindowRun{Busy: ConstantRun{Seconds: 2, Watts: 200}, DeadlineS: 5, FloorW: 30}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := w.Duration(); got != 5 {
		t.Errorf("Duration = %g, want 5", got)
	}
	if got := w.PowerAt(1); got != 200 {
		t.Errorf("PowerAt(1) = %g, want 200 (busy)", got)
	}
	if got := w.PowerAt(3); got != 30 {
		t.Errorf("PowerAt(3) = %g, want 30 (floor tail)", got)
	}
}

func TestWindowRunExactEnergy(t *testing.T) {
	w := WindowRun{Busy: ConstantRun{Seconds: 2, Watts: 200}, DeadlineS: 5, FloorW: 30}
	want := 2*200 + 3*30.0
	if got := TrueEnergy(w); got != want {
		t.Errorf("TrueEnergy = %g, want exactly %g", got, want)
	}
	// The exact path must agree with numerical integration of the shape.
	num := integrate(w.PowerAt, w.Duration(), 1e-4)
	if math.Abs(num-want)/want > 1e-2 {
		t.Errorf("numerical %g disagrees with exact %g", num, want)
	}
}

func TestWindowRunSegmentBusy(t *testing.T) {
	busy := (&SegmentRun{}).AddSegment(1, 100).AddSegment(1, 300)
	w := WindowRun{Busy: busy, DeadlineS: 4, FloorW: 25}
	want := 100 + 300 + 2*25.0
	if got := TrueEnergy(w); got != want {
		t.Errorf("TrueEnergy = %g, want %g", got, want)
	}
}

func TestWindowRunValidate(t *testing.T) {
	if err := (WindowRun{}).Validate(); err == nil {
		t.Error("nil busy profile must not validate")
	}
	w := WindowRun{Busy: ConstantRun{Seconds: 5, Watts: 100}, DeadlineS: 2, FloorW: 10}
	if err := w.Validate(); err == nil {
		t.Error("deadline shorter than busy interval must not validate")
	}
	w = WindowRun{Busy: ConstantRun{Seconds: 1, Watts: 100}, DeadlineS: 2, FloorW: -1}
	if err := w.Validate(); err == nil {
		t.Error("negative floor must not validate")
	}
}

func TestPacedRunShape(t *testing.T) {
	p := PacedRun{
		Base:       ConstantRun{Seconds: 2, Watts: 260},
		Stretch:    2,
		BaselineW:  60,
		PowerScale: 0.25,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Duration(); got != 4 {
		t.Errorf("Duration = %g, want 4", got)
	}
	// 60 + (260-60)*0.25 = 110 everywhere in the window.
	if got := p.PowerAt(3); got != 110 {
		t.Errorf("PowerAt(3) = %g, want 110", got)
	}
}

func TestPacedRunExactEnergy(t *testing.T) {
	p := PacedRun{
		Base:       (&SegmentRun{}).AddSegment(1, 160).AddSegment(1, 360),
		Stretch:    3,
		BaselineW:  60,
		PowerScale: 0.5,
	}
	// Base above-baseline energy: (160-60) + (360-60) = 400 J over 2 s.
	// Paced: 60*6 + 400*0.5*3 = 960 J.
	want := 960.0
	if got := TrueEnergy(p); got != want {
		t.Errorf("TrueEnergy = %g, want exactly %g", got, want)
	}
	num := integrate(p.PowerAt, p.Duration(), 1e-4)
	if math.Abs(num-want)/want > 1e-2 {
		t.Errorf("numerical %g disagrees with exact %g", num, want)
	}
}

func TestPacedRunValidate(t *testing.T) {
	base := ConstantRun{Seconds: 1, Watts: 100}
	for _, tc := range []struct {
		name string
		run  PacedRun
	}{
		{"nil base", PacedRun{Stretch: 2, PowerScale: 0.5}},
		{"stretch below 1", PacedRun{Base: base, Stretch: 0.5, PowerScale: 0.5}},
		{"zero power scale", PacedRun{Base: base, Stretch: 2, PowerScale: 0}},
		{"power scale above 1", PacedRun{Base: base, Stretch: 2, PowerScale: 1.5}},
		{"negative baseline", PacedRun{Base: base, Stretch: 2, PowerScale: 0.5, BaselineW: -3}},
	} {
		if err := tc.run.Validate(); err == nil {
			t.Errorf("%s must not validate", tc.name)
		}
	}
}

func TestWindowRunMeasurable(t *testing.T) {
	// The meter integrates a window run like any other profile, and the
	// dynamic decomposition against the floor recovers the above-floor
	// energy.
	w := WindowRun{Busy: ConstantRun{Seconds: 2, Watts: 200}, DeadlineS: 5, FloorW: 30}
	m := NewMeter(30, 7)
	m.NoiseFrac = 0
	m.SampleInterval = w.Duration() / 500
	rep, err := m.MeasureRun(w)
	if err != nil {
		t.Fatal(err)
	}
	want := TrueEnergy(w) - 30*w.Duration()
	if math.Abs(rep.DynamicEnergyJ-want)/want > 1e-2 {
		t.Errorf("measured dynamic %g J, want ~%g J", rep.DynamicEnergyJ, want)
	}
}

// Validate checks the window's invariants.
func (w WindowRun) Validate() error {
	if w.Busy == nil {
		return fmt.Errorf("meter: window run needs a busy profile")
	}
	if b := w.Busy.Duration(); w.DeadlineS < b {
		return fmt.Errorf("meter: deadline %.4gs shorter than busy interval %.4gs", w.DeadlineS, b)
	}
	if w.FloorW < 0 {
		return fmt.Errorf("meter: negative idle floor %.4g W", w.FloorW)
	}
	return nil
}

// Validate checks the pacing parameters.
func (p PacedRun) Validate() error {
	if p.Base == nil {
		return fmt.Errorf("meter: paced run needs a base profile")
	}
	if p.Stretch < 1 {
		return fmt.Errorf("meter: stretch %.4g must be >= 1", p.Stretch)
	}
	if p.PowerScale <= 0 || p.PowerScale > 1 {
		return fmt.Errorf("meter: power scale %.4g must be in (0, 1]", p.PowerScale)
	}
	if p.BaselineW < 0 {
		return fmt.Errorf("meter: negative baseline %.4g W", p.BaselineW)
	}
	return nil
}
