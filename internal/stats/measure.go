package stats

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// MeasureSpec configures the confidence-driven measurement loop described
// in the paper: "the application is run repeatedly until the sample mean
// lies in the 95% confidence interval and a precision of 0.025 (2.5%) is
// achieved", using Student's t-test and validating the normality assumption
// with Pearson's chi-squared test.
type MeasureSpec struct {
	// Confidence is the confidence level, e.g. 0.95.
	Confidence float64
	// Precision is the relative half-width target, e.g. 0.025.
	Precision float64
	// MinRuns is the minimum number of observations before convergence is
	// considered (at least 2; the paper's tooling uses a handful).
	MinRuns int
	// MaxRuns bounds the loop so a pathologically noisy observable cannot
	// spin forever. When exceeded, Measure returns the sample collected so
	// far together with ErrNoConvergence.
	MaxRuns int
	// CheckNormality, when set, runs a Pearson chi-squared goodness-of-fit
	// test against a normal distribution once converged and records the
	// outcome in the result (it never fails the measurement: the paper uses
	// it as a post-hoc validity check).
	CheckNormality bool
	// NormalityAlpha is the significance level of the chi-squared test
	// (default 0.05).
	NormalityAlpha float64
	// RejectOutliersK, when positive, applies MAD-based outlier rejection
	// (observations beyond K MADs of the median are dropped) before the
	// convergence check. K = 3 is customary. It judges whole-run
	// observations, not meter samples: at about 55 samples per run most
	// runs under per-sample spikes hold one, so every observation carries
	// the spike bias alike. A seeded study over p100, k40c and haswell
	// campaigns (noise 0.05, spike probability 0.02) measured the same
	// +1.0% bias with and without K = 3, and interval coverage fell from
	// about 85% to about 81%: rejection does not remove spike bias here.
	RejectOutliersK float64
}

// defaultConfidence is the paper's confidence level, the one level the
// t* table serves.
const defaultConfidence = 0.95

// DefaultMeasureSpec returns the paper's settings: 95% confidence, 2.5%
// precision, between 3 and 1000 runs, with the normality check enabled.
func DefaultMeasureSpec() MeasureSpec {
	return MeasureSpec{
		Confidence:     defaultConfidence,
		Precision:      0.025,
		MinRuns:        3,
		MaxRuns:        1000,
		CheckNormality: true,
		NormalityAlpha: 0.05,
	}
}

// ErrNoConvergence is wrapped into the error returned by Measure when
// MaxRuns observations did not reach the precision target.
var ErrNoConvergence = errors.New("stats: sample mean did not converge to precision target")

// Measurement is the outcome of a confidence-driven measurement.
type Measurement struct {
	// Sample holds the observations the converged mean was computed from
	// (after outlier rejection when enabled).
	Sample *Sample
	// Rejected counts observations dropped by outlier rejection.
	Rejected int
	// Mean is the converged sample mean.
	Mean float64
	// HalfWidth is the confidence-interval half-width at convergence.
	HalfWidth float64
	// Runs is the number of observations taken.
	Runs int
	// Normality is the chi-squared normality check outcome, if requested
	// and enough observations were available; nil otherwise.
	Normality *ChiSquaredResult
}

// measureState is the reusable per-measurement working set: the rolling
// sorted view of the raw observations (for the median), the kept buffer
// of the rejection pass, and the effective sample the convergence check
// reads. Pooled so a measurement loop of any length allocates O(1) at
// steady state — re-running the batch rejection (rejectOutliers in
// robust_test.go) and rebuilding a Sample per observation would copy the
// whole sample three times per run, an O(n²) allocation pattern a
// 1000-run measurement turns into ~1500 slices.
type measureState struct {
	raw    Sample    // all observations, insertion order
	sorted []float64 // all observations, ascending
	kept   []float64 // rejection survivors, insertion order
	eff    Sample    // streaming moments over kept
}

var measurePool = sync.Pool{New: func() any { return new(measureState) }}

func (st *measureState) reset() {
	st.raw.Reset()
	st.sorted = st.sorted[:0]
	st.kept = st.kept[:0]
	st.eff.Reset()
}

// insertSorted inserts x into the rolling sorted buffer (binary search +
// shift), keeping the median O(1) to read.
func (st *measureState) insertSorted(x float64) {
	lo, hi := 0, len(st.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	st.sorted = append(st.sorted, 0) //lint:ignore hotalloc amortized growth of the rolling sorted buffer; reused capacity across pooled measurements
	copy(st.sorted[lo+1:], st.sorted[lo:])
	st.sorted[lo] = x
}

// medianOfSorted returns the median of an ascending slice.
func medianOfSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// madFromSorted returns the (1.4826-scaled) median absolute deviation
// around med without materializing the deviation vector: over the sorted
// values the deviations form a descending prefix (values ≤ med) followed
// by an ascending suffix, so the k smallest deviations fall out of a
// two-pointer merge outward from the median.
func (st *measureState) madFromSorted(med float64) float64 {
	s := st.sorted
	n := len(s)
	// p = first index with s[p] > med.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= med {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a, b := lo-1, lo // a walks the prefix down, b walks the suffix up
	need1 := n / 2
	need2 := -1
	if n%2 == 0 {
		need1, need2 = n/2-1, n/2
	}
	var m1, m2 float64
	for k := 0; k <= need1 || k <= need2; k++ {
		var d float64
		if a >= 0 && (b >= n || med-s[a] <= s[b]-med) {
			d = med - s[a]
			a--
		} else {
			d = s[b] - med
			b++
		}
		if k == need1 {
			m1 = d
		}
		if k == need2 {
			m2 = d
		}
	}
	if need2 < 0 {
		return 1.4826 * m1
	}
	return 1.4826 * (m1 + m2) / 2
}

// step folds one observation in and returns the sample the convergence
// check should see — the incremental equivalent of appending to the raw
// sample and re-running the batch rejection over it (the rejectOutliers
// oracle in robust_test.go, checked against step at every prefix).
//
//lint:root hotalloc the per-observation step of the measurement loop runs up to MaxRuns times per metric per configuration; all buffers are pooled
func (st *measureState) step(spec *MeasureSpec, x float64) (*Sample, int) {
	st.raw.Add(x)
	if spec.RejectOutliersK > 0 {
		st.insertSorted(x)
	}
	return st.effective(spec)
}

// effective returns the sample the convergence check (and the final
// summary) should see, plus the rejection count. The returned sample
// aliases pooled state; callers must copy what they retain.
func (st *measureState) effective(spec *MeasureSpec) (*Sample, int) {
	if spec.RejectOutliersK <= 0 || st.raw.N() < 5 {
		return &st.raw, 0
	}
	med := medianOfSorted(st.sorted)
	mad := st.madFromSorted(med)
	if mad == 0 {
		// Constant-enough data: nothing can be rejected.
		return &st.raw, 0
	}
	cut := spec.RejectOutliersK * mad
	st.kept = st.kept[:0]
	rejected := 0
	for _, v := range st.raw.xs {
		if math.Abs(v-med) <= cut {
			st.kept = append(st.kept, v) //lint:ignore hotalloc amortized growth of the rejection survivor buffer; reused capacity across pooled measurements
		} else {
			rejected++
		}
	}
	if rejected == 0 || len(st.kept) == 0 {
		return &st.raw, 0
	}
	st.eff.Reset()
	for _, v := range st.kept {
		st.eff.Add(v)
	}
	return &st.eff, rejected
}

// Measure repeatedly invokes observe and accumulates its results until the
// sample mean satisfies the spec's confidence/precision target. observe may
// return an error to abort the measurement.
func Measure(spec MeasureSpec, observe func() (float64, error)) (*Measurement, error) {
	if err := validateSpec(&spec); err != nil {
		return nil, err
	}
	st := measurePool.Get().(*measureState)
	st.reset()
	defer measurePool.Put(st)
	for run := 0; run < spec.MaxRuns; run++ {
		x, err := observe()
		if err != nil {
			return nil, fmt.Errorf("stats: observation %d failed: %w", run+1, err)
		}
		s, rejected := st.step(&spec, x)
		if s.N() < spec.MinRuns {
			continue
		}
		if hw, ok := s.WithinPrecision(spec.Confidence, spec.Precision); ok {
			return finishMeasurement(spec, s, rejected, hw, nil), nil
		}
	}
	s, rejected := st.effective(&spec)
	hw, err := s.ConfidenceHalfWidth(spec.Confidence)
	return finishMeasurement(spec, s, rejected, hw, err), fmt.Errorf("stats: %d runs: %w", st.raw.N(), ErrNoConvergence)
}

func validateSpec(spec *MeasureSpec) error {
	if spec.Confidence <= 0 || spec.Confidence >= 1 {
		return errors.New("stats: MeasureSpec.Confidence must be in (0,1)")
	}
	if spec.Precision <= 0 {
		return errors.New("stats: MeasureSpec.Precision must be positive")
	}
	if spec.MinRuns < 2 {
		spec.MinRuns = 2
	}
	if spec.MaxRuns < spec.MinRuns {
		return errors.New("stats: MeasureSpec.MaxRuns must be >= MinRuns")
	}
	if spec.NormalityAlpha <= 0 || spec.NormalityAlpha >= 1 {
		spec.NormalityAlpha = 0.05
	}
	return nil
}

// finishMeasurement assembles the Measurement from the effective sample
// and the result of its ConfidenceHalfWidth; it is total (a half-width
// that cannot be computed is reported as 0). The effective sample aliases
// pooled loop state, so the retained sample is a fresh copy.
func finishMeasurement(spec MeasureSpec, s *Sample, rejected int, hw float64, hwErr error) *Measurement {
	if hwErr != nil {
		hw = 0
	}
	m := &Measurement{
		Sample:    NewSample(s.xs...),
		Rejected:  rejected,
		Mean:      s.Mean(),
		HalfWidth: hw,
		Runs:      s.N() + rejected,
	}
	if spec.CheckNormality {
		if res, err := PearsonNormalityTest(s.Values(), spec.NormalityAlpha); err == nil {
			m.Normality = res
		}
	}
	return m
}
