package stats

import (
	"errors"
	"runtime/debug"
	"testing"
)

// Steady-state allocation guards for the measurement loop. The former
// implementation re-ran the batch outlier rejection and rebuilt a fresh
// Sample on every observation — three full-sample copies per run, O(n²)
// bytes over a long measurement. The loop now works out of a pooled
// measureState, so the allocation count of a whole measurement is a
// small constant regardless of how many runs it takes.

// TestMeasureConvergedAllocs: a short converged measurement allocates
// only its fixed outputs (the retained Sample and the Measurement),
// not per-observation garbage.
func TestMeasureConvergedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec := MeasureSpec{Confidence: 0.95, Precision: 0.025, MinRuns: 3, MaxRuns: 100}
	i := 0
	observe := func() (float64, error) {
		i++
		return 100 + float64(i%5), nil
	}
	if _, err := Measure(spec, observe); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Measure(spec, observe); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("converged Measure allocates %.1f objects, want <= 10 (result only)", allocs)
	}
}

// TestMeasureLongLoopAllocsO1: a 500-run measurement with outlier
// rejection active allocates the same small constant as a short one —
// the incremental rejection never copies the sample per observation.
func TestMeasureLongLoopAllocsO1(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec := MeasureSpec{
		Confidence:      0.95,
		Precision:       1e-9, // unreachable: force the loop to MaxRuns
		MinRuns:         3,
		MaxRuns:         500,
		RejectOutliersK: 3,
	}
	i := 0
	observe := func() (float64, error) {
		i++
		x := 100 + float64(i%7)
		if i%50 == 0 {
			x *= 10 // periodic disturbance spike for the rejection path
		}
		return x, nil
	}
	run := func() {
		if _, err := Measure(spec, observe); !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("expected ErrNoConvergence, got %v", err)
		}
	}
	run() // size the pooled buffers
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 40 {
		t.Errorf("500-run Measure allocates %.1f objects, want <= 40 (independent of run count)", allocs)
	}
}

// BenchmarkMeasureConverged is the statistics share of one measured
// point: the paper's loop (DefaultMeasureSpec) over observations that
// converge at the third run.
func BenchmarkMeasureConverged(b *testing.B) {
	spec := DefaultMeasureSpec()
	obs := [3]float64{100, 100.2, 99.9}
	i := 0
	observe := func() (float64, error) {
		x := obs[i%len(obs)]
		i++
		return x, nil
	}
	run := func() {
		i = 0
		m, err := Measure(spec, observe)
		if err != nil {
			b.Fatal(err)
		}
		if m.Runs != len(obs) {
			b.Fatalf("converged after %d runs, want %d", m.Runs, len(obs))
		}
	}
	run() // warm the pooled loop state and the t* table
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		run()
	}
}
