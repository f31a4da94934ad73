package cpusim

import (
	"runtime/debug"
	"testing"

	"energyprop/internal/dense"
)

// The steady-state allocation guards for the CPU measurement hot path:
// after one cold run has sized the machine's scratch pool, placement
// cache, and decomposition cache, reruns into a reused Result must not
// allocate at all. GC is disabled during the AllocsPerRun windows so a
// concurrent collection cannot empty the sync.Pools mid-measurement and
// charge the refill to the run under test.

func fig4App() GEMMApp {
	return GEMMApp{
		N:       2048,
		Config:  dense.Config{Groups: 2, ThreadsPerGroup: 12, Partition: dense.PartitionContiguous},
		Variant: dense.VariantPacked,
	}
}

// TestRunGEMMIntoWarmAllocs: a warm RunGEMM into a reused Result is
// allocation-free —
// the acceptance bar of the zero-alloc hot-path refactor.
func TestRunGEMMIntoWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := NewHaswell()
	app := fig4App()
	var r Result
	if _, err := m.RunGEMM(app, &r); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.RunGEMM(app, &r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm RunGEMM allocates %.1f objects per run, want 0", allocs)
	}
}

// TestRunGEMMAtFrequencyIntoWarmAllocs: the DVFS path shares the cached
// placement and decomposition, so every frequency level is equally free.
func TestRunGEMMAtFrequencyIntoWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := NewHaswell()
	app := fig4App()
	var r Result
	for _, f := range FrequencyLevels() {
		if _, err := m.RunGEMMAtFrequency(app, f, &r); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range FrequencyLevels() {
			if _, err := m.RunGEMMAtFrequency(app, f, &r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm RunGEMMAtFrequency sweep allocates %.1f objects, want 0", allocs)
	}
}

// TestRunFFT2DThreadedIntoWarmAllocs: the FFT application runs through
// the same engine and scratch.
func TestRunFFT2DThreadedIntoWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := NewHaswell()
	cfg := dense.Config{Groups: 2, ThreadsPerGroup: 8, Partition: dense.PartitionContiguous}
	var r Result
	if _, err := m.RunFFT2DThreaded(1024, cfg, &r); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.RunFFT2DThreaded(1024, cfg, &r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm RunFFT2DThreaded allocates %.1f objects per run, want 0", allocs)
	}
}

// TestProcStatPathWarmAllocs: the /proc/stat round trip — render the
// before/after texts and parse them back — allocates only the two
// returned strings on a warm machine (the snapshot, its render buffer,
// and the parse maps are pooled).
func TestProcStatPathWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := NewHaswell()
	var r Result
	if _, err := m.RunGEMM(fig4App(), &r); err != nil {
		t.Fatal(err)
	}
	warm := func() {
		before, after, err := m.ProcStatPair(&r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AvgUtilizationFromProcStat(before, after); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs > 2 {
		t.Errorf("warm ProcStatPair+AvgUtilization allocates %.1f objects per run, want <= 2 (the two rendered texts)", allocs)
	}
}
