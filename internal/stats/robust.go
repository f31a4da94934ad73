package stats

import (
	"errors"
	"math"
)

// Robust summaries for disturbance-contaminated measurements: the paper's
// methodology takes "several precautions ... to eliminate the potential
// disturbance due to components such as SSDs and fans"; when raw samples
// cannot be cleaned at the source, MAD-based outlier rejection recovers
// the clean estimate.

// MAD returns the median absolute deviation (scaled by 1.4826 so it
// estimates the standard deviation of normal data).
func MAD(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: empty input")
	}
	med := NewSample(xs...).Median()
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return 1.4826 * NewSample(devs...).Median(), nil
}

// RejectOutliers returns the observations within k MADs of the median
// (k = 3 is customary) and the number rejected. Constant data is returned
// unchanged.
func RejectOutliers(xs []float64, k float64) (kept []float64, rejected int, err error) {
	if len(xs) == 0 {
		return nil, 0, errors.New("stats: empty input")
	}
	if k <= 0 {
		return nil, 0, errors.New("stats: k must be positive")
	}
	mad, err := MAD(xs)
	if err != nil {
		return nil, 0, err
	}
	if mad == 0 {
		return append([]float64(nil), xs...), 0, nil
	}
	med := NewSample(xs...).Median()
	for _, x := range xs {
		if math.Abs(x-med) <= k*mad {
			kept = append(kept, x)
		} else {
			rejected++
		}
	}
	if len(kept) == 0 {
		return nil, 0, errors.New("stats: every observation rejected")
	}
	return kept, rejected, nil
}
