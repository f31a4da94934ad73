package stats

import (
	"errors"
	"math"
)

// Sample accumulates scalar observations and answers the summary questions
// the measurement methodology asks: mean, variance, confidence half-width.
// The zero value is an empty sample ready to use.
//
// Moments are maintained streaming on Add (a running sum for the mean,
// Welford's recurrence for the second moment, running min/max), so Mean,
// Variance, StdErr, Min, and Max are O(1) — the convergence check the
// measurement loop runs after every observation never walks the sample.
// The observations themselves are retained in insertion order for
// Values, Median, and the normality test.
type Sample struct {
	xs []float64

	sum  float64 // running sum (Mean = sum/n, matching the former loop exactly)
	mean float64 // Welford running mean (feeds m2 only)
	m2   float64 // Welford sum of squared deviations
	min  float64
	max  float64
}

// NewSample returns a sample pre-loaded with the given observations.
// The slice is copied.
func NewSample(xs ...float64) *Sample {
	s := &Sample{xs: make([]float64, 0, len(xs))}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Add appends one observation and folds it into the running moments.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x) //lint:ignore hotalloc amortized growth of the retained observations; reused capacity after Reset
	n := len(s.xs)
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(n)
	s.m2 += delta * (x - s.mean)
	if n == 1 || x < s.min {
		s.min = x
	}
	if n == 1 || x > s.max {
		s.max = x
	}
}

// Reset empties the sample, retaining the observation buffer's capacity
// so a pooled sample can be refilled without allocating.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sum, s.mean, s.m2, s.min, s.max = 0, 0, 0, 0, 0
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Variance returns the unbiased (n-1) sample variance, or 0 when fewer than
// two observations are present.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return s.m2 / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(len(s.xs)))
}

// CV returns the coefficient of variation (stddev / |mean|), the statistic
// the weak-EP analyzer uses to judge whether dynamic energy is "a constant"
// across configurations. It returns +Inf when the mean is zero.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return math.Inf(1)
	}
	return s.StdDev() / math.Abs(m)
}

// ConfidenceHalfWidth returns the half-width of the two-sided Student-t
// confidence interval for the mean at the given confidence level
// (e.g. 0.95). It requires at least two observations. The critical value
// comes from the package's t* table, bit-identical to StudentTQuantile.
func (s *Sample) ConfidenceHalfWidth(confidence float64) (float64, error) {
	n := len(s.xs)
	if n < 2 {
		return 0, errors.New("stats: confidence interval requires at least 2 observations")
	}
	t, err := tCrit.critical(confidence, n-1)
	if err != nil {
		return 0, err
	}
	return t * s.StdErr(), nil
}

// WithinPrecision reports whether the sample mean has converged: the
// half-width hw of the confidence interval at the given level is at most
// precision × |mean| (the paper uses confidence 0.95, precision 0.025).
// It also returns hw, so the measurement loop reports the half-width it
// judged without computing it again. A sample with fewer than two
// observations, or whose half-width cannot be computed, has not
// converged and reports hw = 0.
func (s *Sample) WithinPrecision(confidence, precision float64) (hw float64, ok bool) {
	if len(s.xs) < 2 {
		return 0, false
	}
	hw, err := s.ConfidenceHalfWidth(confidence)
	if err != nil {
		return 0, false
	}
	m := math.Abs(s.Mean())
	if m == 0 {
		return hw, hw == 0
	}
	return hw, hw <= precision*m
}
