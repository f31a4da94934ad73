package cpusim

import (
	"math"
	"testing"

	"energyprop/internal/dense"
)

func TestRunFFT2DThreadedValidation(t *testing.T) {
	m := NewHaswell()
	if _, err := m.RunFFT2DThreaded(1, dense.Config{Groups: 1, ThreadsPerGroup: 1}, nil); err == nil {
		t.Error("N=1: want error")
	}
	if _, err := m.RunFFT2DThreaded(1024, dense.Config{Groups: 0, ThreadsPerGroup: 1}, nil); err == nil {
		t.Error("bad config: want error")
	}
}

func TestRunFFT2DThreadedSanity(t *testing.T) {
	m := NewHaswell()
	r, err := m.RunFFT2DThreaded(8192, dense.Config{Groups: 2, ThreadsPerGroup: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seconds <= 0 || r.DynPowerW <= 0 || r.GFLOPs <= 0 {
		t.Fatalf("bad result %+v", r)
	}
	if r.AppName != "fft2d" {
		t.Errorf("AppName = %q, want fft2d", r.AppName)
	}
	busy := 0
	for _, u := range r.CoreUtil {
		if u > 0 {
			busy++
		}
	}
	if busy != 16 {
		t.Errorf("%d cores busy, want 16", busy)
	}
}

func TestFFTThreadedWeakEPViolated(t *testing.T) {
	// Same workload, equal per-thread distribution, different
	// configurations: dynamic energy must spread — the second application
	// family of the weak-EP study.
	m := NewHaswell()
	minE, maxE := math.Inf(1), math.Inf(-1)
	for _, cfg := range []dense.Config{
		{Groups: 1, ThreadsPerGroup: 8},
		{Groups: 2, ThreadsPerGroup: 4},
		{Groups: 2, ThreadsPerGroup: 12},
		{Groups: 1, ThreadsPerGroup: 24},
		{Groups: 2, ThreadsPerGroup: 4, Partition: dense.PartitionCyclic},
	} {
		r, err := m.RunFFT2DThreaded(8192, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		minE = math.Min(minE, r.DynEnergyJ)
		maxE = math.Max(maxE, r.DynEnergyJ)
	}
	if (maxE-minE)/minE < 0.15 {
		t.Errorf("FFT energy spread %.1f%%, want > 15%% (weak EP violated)", 100*(maxE-minE)/minE)
	}
}

func TestFFTThreadedCyclicCostsTLB(t *testing.T) {
	m := NewHaswell()
	contig, err := m.RunFFT2DThreaded(8192, dense.Config{Groups: 2, ThreadsPerGroup: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cyclic, err := m.RunFFT2DThreaded(8192, dense.Config{Groups: 2, ThreadsPerGroup: 6, Partition: dense.PartitionCyclic}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cyclic.Power.DTLBW <= contig.Power.DTLBW {
		t.Error("cyclic row interleaving should raise dTLB power")
	}
}

func TestFFTThreadedPMCRejected(t *testing.T) {
	m := NewHaswell()
	r, err := m.RunFFT2DThreaded(4096, dense.Config{Groups: 1, ThreadsPerGroup: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CollectPMC(r); err == nil {
		t.Error("PMC collection for an FFT run should be rejected (DGEMM-calibrated)")
	}
}

func TestFFTThreadedScalesWithThreads(t *testing.T) {
	m := NewHaswell()
	r1, err := m.RunFFT2DThreaded(8192, dense.Config{Groups: 1, ThreadsPerGroup: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := m.RunFFT2DThreaded(8192, dense.Config{Groups: 2, ThreadsPerGroup: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Seconds >= r1.Seconds {
		t.Error("8 threads should beat 1 thread")
	}
}
