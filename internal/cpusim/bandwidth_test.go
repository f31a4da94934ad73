package cpusim

import (
	"testing"

	"energyprop/internal/dense"
	"energyprop/internal/workload"
)

func TestSpMVThreadedBasics(t *testing.T) {
	m := NewHaswell()
	cfg := dense.Config{Groups: 2, ThreadsPerGroup: 4}
	r, err := m.RunSpMVThreaded(4096, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.AppName != "spmv" {
		t.Errorf("AppName = %q, want spmv", r.AppName)
	}
	if r.Seconds <= 0 || r.DynEnergyJ <= 0 || r.DynPowerW <= 0 {
		t.Fatalf("non-positive outputs: %+v", r)
	}
	// Bandwidth-bound: well below the machine's dense throughput.
	dense1, err := m.RunGEMM(GEMMApp{N: 4096, Config: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.GFLOPs >= dense1.GFLOPs {
		t.Errorf("SpMV at %g GFLOPs not below DGEMM's %g", r.GFLOPs, dense1.GFLOPs)
	}
}

func TestStencilThreadedBasics(t *testing.T) {
	m := NewHaswell()
	cfg := dense.Config{Groups: 1, ThreadsPerGroup: 8}
	r, err := m.RunStencilThreaded(2048, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.AppName != "stencil" {
		t.Errorf("AppName = %q, want stencil", r.AppName)
	}
	if r.Seconds <= 0 || r.DynEnergyJ <= 0 {
		t.Fatalf("non-positive outputs: %+v", r)
	}
}

func TestBandwidthFamiliesRejectBadSizes(t *testing.T) {
	m := NewHaswell()
	cfg := dense.Config{Groups: 1, ThreadsPerGroup: 1}
	if _, err := m.RunSpMVThreaded(0, cfg, nil); err == nil {
		t.Error("SpMV n=0 must error")
	}
	if _, err := m.RunStencilThreaded(2, cfg, nil); err == nil {
		t.Error("stencil n=2 must error")
	}
	if _, err := m.RunSpMVThreaded(64, dense.Config{Groups: 9, ThreadsPerGroup: 9}, nil); err == nil {
		t.Error("invalid config must error")
	}
}

func TestCyclicPartitionCostsEnergy(t *testing.T) {
	// The partition effect the threadgroup study measures: interleaved
	// rows cost traffic and page walks in both bandwidth-bound families.
	m := NewHaswell()
	n := 8192
	cont := dense.Config{Groups: 2, ThreadsPerGroup: 6}
	cyc := dense.Config{Partition: dense.PartitionCyclic, Groups: 2, ThreadsPerGroup: 6}
	for _, app := range []string{"spmv", "stencil"} {
		run := m.RunSpMVThreaded
		if app == "stencil" {
			run = m.RunStencilThreaded
		}
		rc, err := run(n, cont, nil)
		if err != nil {
			t.Fatal(err)
		}
		ry, err := run(n, cyc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ry.Seconds <= rc.Seconds {
			t.Errorf("%s: cyclic %.4fs not slower than contiguous %.4fs", app, ry.Seconds, rc.Seconds)
		}
	}
}

func TestBandwidthFamiliesDeterministic(t *testing.T) {
	m := NewHaswell()
	cfg := dense.Config{Groups: 2, ThreadsPerGroup: 12}
	a, err := m.RunSpMVThreaded(4096, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RunSpMVThreaded(4096, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.DynEnergyJ != b.DynEnergyJ {
		t.Errorf("SpMV reruns differ: %v vs %v", a, b)
	}
	s1, err := m.RunStencilThreaded(4096, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.RunStencilThreaded(4096, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Seconds != s2.Seconds || s1.DynEnergyJ != s2.DynEnergyJ {
		t.Errorf("stencil reruns differ: %v vs %v", s1, s2)
	}
}

func TestBandwidthWarmRunsAllocationFree(t *testing.T) {
	// Runs into a reused result ride the pooled scratch and caller-owned
	// buffers,
	// so the steady-state contract of the zero-alloc engine extends to
	// the new families.
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	m := NewHaswell()
	cfg := dense.Config{Groups: 2, ThreadsPerGroup: 6}
	out := &Result{}
	if _, err := m.RunSpMVThreaded(2048, cfg, out); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunStencilThreaded(2048, cfg, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.RunSpMVThreaded(2048, cfg, out); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunStencilThreaded(2048, cfg, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm SpMV+stencil run allocates %.1f times, want 0", allocs)
	}
}

func TestSpMVIntensityMatchesWorkloadModel(t *testing.T) {
	// The machine must execute exactly the backend-neutral work model:
	// reported GFLOPs times seconds equals workload.SpMVFlops.
	m := NewHaswell()
	cfg := dense.Config{Groups: 1, ThreadsPerGroup: 4}
	n := 1024
	r, err := m.RunSpMVThreaded(n, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := r.GFLOPs * r.Seconds * 1e9
	want := workload.SpMVFlops(n)
	if diff := got - want; diff > 1e-3 || diff < -1e-3 {
		t.Errorf("executed %g flops, want %g", got, want)
	}
}
