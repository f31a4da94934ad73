package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Robust summaries for disturbance-contaminated measurements: the paper's
// methodology takes "several precautions ... to eliminate the potential
// disturbance due to components such as SSDs and fans"; when raw samples
// cannot be cleaned at the source, MAD-based outlier rejection recovers
// the clean estimate. mad and rejectOutliers are the batch definition of
// that rejection; the measurement loop's incremental measureState must
// agree with them at every prefix (TestStepMatchesBatchRejection).

// mad returns the median absolute deviation (scaled by 1.4826 so it
// estimates the standard deviation of normal data).
func mad(xs []float64) (float64, error) {
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

// rejectOutliers returns the observations within k MADs of the median
// (k = 3 is customary) and the number rejected. Constant data is returned
// unchanged.
func rejectOutliers(xs []float64, k float64) (kept []float64, rejected int, err error) {
	if len(xs) == 0 {
		return nil, 0, errors.New("stats: empty input")
	}
	if k <= 0 {
		return nil, 0, errors.New("stats: k must be positive")
	}
	m, err := mad(xs)
	if err != nil {
		return nil, 0, err
	}
	if m == 0 {
		return append([]float64(nil), xs...), 0, nil
	}
	med := NewSample(xs...).Median()
	for _, x := range xs {
		if math.Abs(x-med) <= k*m {
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

// TestStepMatchesBatchRejection: measureState.step is the incremental
// form of rejectOutliers over the raw prefix. Seeded spiky streams (the
// meter's SSD/fan disturbance model, some dominated by one repeated
// value so the MAD drops to zero) go through step with K = 3; from the fifth
// observation on — where step starts rejecting — its rejection count and
// kept multiset must equal the batch oracle's.
func TestStepMatchesBatchRejection(t *testing.T) {
	spec := MeasureSpec{RejectOutliersK: 3}
	var rejecting, zeroMAD int // prefixes that exercise each branch
	for seed := int64(1); seed <= 45; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spikeProb := 0.02 + 0.3*rng.Float64()
		repeatProb := []float64{0, 0.1, 0.6}[seed%3]
		st := new(measureState)
		var raw []float64
		for n := 1; n <= 120; n++ {
			x := 100 * (1 + 0.01*rng.NormFloat64())
			switch r := rng.Float64(); {
			case r < spikeProb:
				x *= 1.1 + rng.Float64()
			case r < spikeProb+repeatProb:
				x = 100 // repeated value
			}
			raw = append(raw, x)
			s, rejected := st.step(&spec, x)
			if n < 5 {
				continue
			}
			kept, wantRejected, err := rejectOutliers(raw, spec.RejectOutliersK)
			if err != nil {
				t.Fatalf("seed %d n=%d: %v", seed, n, err)
			}
			if wantRejected > 0 {
				rejecting++
			}
			if m, _ := mad(raw); m == 0 {
				zeroMAD++
			}
			if rejected != wantRejected {
				t.Fatalf("seed %d n=%d: step rejected %d, batch %d", seed, n, rejected, wantRejected)
			}
			got := append([]float64(nil), s.xs...)
			sort.Float64s(got)
			sort.Float64s(kept)
			if len(got) != len(kept) {
				t.Fatalf("seed %d n=%d: step kept %d, batch %d", seed, n, len(got), len(kept))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(kept[i]) {
					t.Fatalf("seed %d n=%d: kept multisets differ at %d: %v vs %v", seed, n, i, got[i], kept[i])
				}
			}
		}
	}
	if rejecting == 0 || zeroMAD == 0 {
		t.Fatalf("streams too tame: %d rejecting and %d zero-MAD prefixes, want both > 0", rejecting, zeroMAD)
	}
}

func TestMAD(t *testing.T) {
	// Normal data: MAD estimates the standard deviation.
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()*2
	}
	m, err := mad(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-2) > 0.15 {
		t.Errorf("MAD = %v, want ~2", m)
	}
	if _, err := mad(nil); err == nil {
		t.Error("empty: want error")
	}
}

func TestRejectOutliers(t *testing.T) {
	xs := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 35} // one spike
	kept, rejected, err := rejectOutliers(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 1 || len(kept) != 6 {
		t.Errorf("rejected %d kept %d, want 1/6", rejected, len(kept))
	}
	for _, x := range kept {
		if x > 30 {
			t.Error("spike survived rejection")
		}
	}
	// Constant data: nothing rejected.
	kept, rejected, err = rejectOutliers([]float64{5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 || len(kept) != 3 {
		t.Error("constant data must pass through")
	}
	if _, _, err := rejectOutliers(nil, 3); err == nil {
		t.Error("empty: want error")
	}
	if _, _, err := rejectOutliers(xs, 0); err == nil {
		t.Error("k=0: want error")
	}
}

func TestRobustPipelineRecoversCleanMean(t *testing.T) {
	// 5% of samples are 1.3x spikes (the meter's SSD/fan model); outlier
	// rejection recovers the clean mean far better than the raw mean.
	rng := rand.New(rand.NewSource(8))
	const clean = 200.0
	xs := make([]float64, 500)
	for i := range xs {
		x := clean * (1 + rng.NormFloat64()*0.01)
		if rng.Float64() < 0.05 {
			x *= 1.3
		}
		xs[i] = x
	}
	raw := NewSample(xs...).Mean()
	kept, _, err := rejectOutliers(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	robust := NewSample(kept...).Mean()
	if math.Abs(robust-clean) >= math.Abs(raw-clean) {
		t.Errorf("robust mean %v not closer to %v than raw %v", robust, clean, raw)
	}
	if math.Abs(robust-clean)/clean > 0.005 {
		t.Errorf("robust mean %v more than 0.5%% off", robust)
	}
}
