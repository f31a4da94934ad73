package ep

import (
	"math"
	"testing"
)

func TestRyckboschEPIdealCurve(t *testing.T) {
	us := []float64{0, 0.25, 0.5, 0.75, 1}
	ps := []float64{0, 25, 50, 75, 100}
	ep, err := RyckboschEP(us, ps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ep-1) > 1e-12 {
		t.Errorf("ideal curve EP = %v, want 1", ep)
	}
}

func TestRyckboschEPFlatCurveScoresLow(t *testing.T) {
	// Constant power regardless of utilization: grossly non-proportional.
	us := []float64{0, 0.5, 1}
	ps := []float64{100, 100, 100}
	ep, err := RyckboschEP(us, ps)
	if err != nil {
		t.Fatal(err)
	}
	if ep > 0.6 {
		t.Errorf("flat curve EP = %v, want low", ep)
	}
}

func TestRyckboschEPOrdering(t *testing.T) {
	us := []float64{0, 0.5, 1}
	ideal := []float64{0, 50, 100}
	slightlyOff := []float64{10, 55, 100}
	veryOff := []float64{60, 80, 100}
	e1, err := RyckboschEP(us, ideal)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := RyckboschEP(us, slightlyOff)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := RyckboschEP(us, veryOff)
	if err != nil {
		t.Fatal(err)
	}
	if !(e1 > e2 && e2 > e3) {
		t.Errorf("ordering broken: %v, %v, %v", e1, e2, e3)
	}
}

func TestMetricValidation(t *testing.T) {
	if _, err := RyckboschEP([]float64{0.1}, []float64{1}); err == nil {
		t.Error("single point: want error")
	}
	if _, err := RyckboschEP([]float64{0.1, 1.4}, []float64{1, 2}); err == nil {
		t.Error("utilization > 1: want error")
	}
	if _, err := RyckboschEP([]float64{0.1, 0.9}, []float64{1, -2}); err == nil {
		t.Error("negative power: want error")
	}
	if _, err := RyckboschEP([]float64{0.1, 0.9}, []float64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := RyckboschEP([]float64{0.1, 0.9}, []float64{1, 0}); err == nil {
		t.Error("zero peak power: want error")
	}
}

func TestLinearityR2(t *testing.T) {
	us := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	linear := []float64{10, 30, 50, 70, 90}
	r2, err := LinearityR2(us, linear)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2-1) > 1e-12 {
		t.Errorf("linear data R² = %v, want 1", r2)
	}
	scattered := []float64{10, 80, 20, 90, 30}
	r2s, err := LinearityR2(us, scattered)
	if err != nil {
		t.Fatal(err)
	}
	if r2s > 0.5 {
		t.Errorf("scattered data R² = %v, want low", r2s)
	}
	if _, err := LinearityR2([]float64{0.5, 0.5}, []float64{1, 2}); err == nil {
		t.Error("constant utilization: want error")
	}
}

func TestFunctionalSpread(t *testing.T) {
	// Two points at (nearly) the same utilization with very different
	// power: the Fig 4 signature.
	us := []float64{0.50, 0.505, 0.9}
	ps := []float64{86, 139, 170}
	s, err := FunctionalSpread(us, ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := (139.0 - 86) / 86
	if math.Abs(s-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", s, want)
	}
	// A clean functional curve has no in-bucket spread.
	s2, err := FunctionalSpread([]float64{0.1, 0.5, 0.9}, []float64{10, 50, 90}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 0 {
		t.Errorf("functional curve spread = %v, want 0", s2)
	}
	if _, err := FunctionalSpread(us, ps, 0); err == nil {
		t.Error("zero bucket width: want error")
	}
}
