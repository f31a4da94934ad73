package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	s := NewSample(2, 4, 4, 4, 5, 5, 7, 9)
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance is 4; sample (n-1) variance is 32/7.
	if got := s.Variance(); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v, want 2", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got := s.Median(); !almostEqual(got, 4.5, 1e-12) {
		t.Errorf("Median = %v, want 4.5", got)
	}
}

func TestSampleEmptyAndSingleton(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty sample summaries should be 0")
	}
	if _, err := s.ConfidenceHalfWidth(0.95); err == nil {
		t.Error("CI of empty sample: want error")
	}
	s.Add(3)
	if s.Mean() != 3 {
		t.Error("singleton mean")
	}
	if s.Variance() != 0 {
		t.Error("singleton variance should be 0")
	}
	if _, ok := s.WithinPrecision(0.95, 0.025); ok {
		t.Error("singleton should not be considered converged")
	}
}

func TestSampleMinMaxPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min of empty sample should panic")
		}
	}()
	var s Sample
	s.Min()
}

func TestSampleValuesIsCopy(t *testing.T) {
	s := NewSample(1, 2, 3)
	v := s.Values()
	v[0] = 99
	if s.Values()[0] != 1 {
		t.Error("Values must return a copy")
	}
}

func TestSampleCV(t *testing.T) {
	s := NewSample(10, 10, 10, 10)
	if got := s.CV(); got != 0 {
		t.Errorf("CV of constant sample = %v, want 0", got)
	}
	z := NewSample(-1, 1)
	if !math.IsInf(z.CV(), 1) {
		t.Error("CV with zero mean should be +Inf")
	}
}

func TestConfidenceHalfWidthKnown(t *testing.T) {
	// Sample of n=4 with sd=1: half-width = t*(0.95, 3) * 1/2 = 3.182/2.
	s := NewSample(-1.5, -0.5, 0.5, 1.5)
	sd := s.StdDev()
	hw, err := s.ConfidenceHalfWidth(0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.182 * sd / 2
	if !almostEqual(hw, want, 5e-3) {
		t.Errorf("half-width = %v, want %v", hw, want)
	}
}

func TestWithinPrecisionConvergence(t *testing.T) {
	// A tight sample around 100 should converge at 2.5%.
	s := NewSample(100, 100.5, 99.5, 100.2, 99.8)
	hw, ok := s.WithinPrecision(0.95, 0.025)
	if !ok {
		t.Error("tight sample should be within precision")
	}
	if want, err := s.ConfidenceHalfWidth(0.95); err != nil || math.Float64bits(hw) != math.Float64bits(want) {
		t.Errorf("WithinPrecision half-width = %v, want ConfidenceHalfWidth's %v (%v)", hw, want, err)
	}
	// A wildly noisy sample should not.
	n := NewSample(50, 150, 80, 120)
	if _, ok := n.WithinPrecision(0.95, 0.025); ok {
		t.Error("noisy sample should not be within precision")
	}
}

func TestSampleMeanShiftProperty(t *testing.T) {
	// mean(xs + c) = mean(xs) + c; variance unchanged.
	check := func(seed int64, c float64) bool {
		c = math.Mod(c, 1e6)
		rng := rand.New(rand.NewSource(seed))
		a, b := &Sample{}, &Sample{}
		for i := 0; i < 20; i++ {
			x := rng.NormFloat64() * 10
			a.Add(x)
			b.Add(x + c)
		}
		return almostEqual(b.Mean(), a.Mean()+c, 1e-8) &&
			almostEqual(b.Variance(), a.Variance(), 1e-7)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleVarianceNonNegativeProperty(t *testing.T) {
	check := func(xs []float64) bool {
		s := &Sample{}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(math.Mod(x, 1e8))
		}
		return s.Variance() >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Min returns the smallest observation; it panics on an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		panic("stats: Min of empty sample")
	}
	return s.min
}

// Max returns the largest observation; it panics on an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		panic("stats: Max of empty sample")
	}
	return s.max
}

// Median returns the median observation, or 0 for an empty sample.
func (s *Sample) Median() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	sorted := s.Values()
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
