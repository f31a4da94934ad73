package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMAD(t *testing.T) {
	// Normal data: MAD estimates the standard deviation.
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()*2
	}
	mad, err := MAD(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mad-2) > 0.15 {
		t.Errorf("MAD = %v, want ~2", mad)
	}
	if _, err := MAD(nil); err == nil {
		t.Error("empty: want error")
	}
}

func TestRejectOutliers(t *testing.T) {
	xs := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 35} // one spike
	kept, rejected, err := RejectOutliers(xs, 3)
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
	kept, rejected, err = RejectOutliers([]float64{5, 5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 || len(kept) != 3 {
		t.Error("constant data must pass through")
	}
	if _, _, err := RejectOutliers(nil, 3); err == nil {
		t.Error("empty: want error")
	}
	if _, _, err := RejectOutliers(xs, 0); err == nil {
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
	kept, _, err := RejectOutliers(xs, 3)
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
