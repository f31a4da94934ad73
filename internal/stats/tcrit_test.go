package stats

import (
	"math"
	"runtime/debug"
	"sync"
	"testing"
)

// TestStudentTCriticalMatchesQuantile: every critical value is the
// float64 StudentTQuantile returns, bit for bit, for ν = 1…1000 at the
// three customary levels, read both on the filling miss and on the later
// hit. Only the 0.95 level fills the table; the others go to the solver.
func TestStudentTCriticalMatchesQuantile(t *testing.T) {
	var c tCritTable
	for _, conf := range []float64{0.90, 0.95, 0.99} {
		for pass := 0; pass < 2; pass++ {
			for nu := 1; nu <= tCritMaxNu; nu++ {
				got, err := c.critical(conf, nu)
				if err != nil {
					t.Fatal(err)
				}
				want, err := StudentTQuantile(conf, float64(nu))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("confidence %v, ν=%d, pass %d: table gives %v, StudentTQuantile %v", conf, nu, pass, got, want)
				}
			}
		}
	}
	for nu := 1; nu <= tCritMaxNu; nu++ {
		if c[nu].Load() == 0 {
			t.Fatalf("ν=%d at 0.95 was not cached", nu)
		}
	}
}

// TestStudentTCriticalConcurrentFill: goroutines filling the same empty
// table at once agree with the solver and with each other. Run under
// -race, this is the check that the table needs no lock to read.
func TestStudentTCriticalConcurrentFill(t *testing.T) {
	var c tCritTable
	const workers = 4
	const maxNu = 60
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]float64, maxNu+1)
			for nu := 1; nu <= maxNu; nu++ {
				v, err := c.critical(0.95, nu)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][nu] = v
			}
		}(w)
	}
	wg.Wait()
	for nu := 1; nu <= maxNu; nu++ {
		want, err := StudentTQuantile(0.95, float64(nu))
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			if math.Float64bits(got[w][nu]) != math.Float64bits(want) {
				t.Fatalf("worker %d, ν=%d: %v, want %v", w, nu, got[w][nu], want)
			}
		}
	}
}

// TestStudentTCriticalBounds: inputs outside the table fall through to
// the solver, with its errors, and leave the table empty.
func TestStudentTCriticalBounds(t *testing.T) {
	var c tCritTable
	solverAgrees := func(conf float64, nu int) {
		t.Helper()
		got, gotErr := c.critical(conf, nu)
		want, wantErr := StudentTQuantile(conf, float64(nu))
		if (gotErr == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("confidence %v, ν=%d: (%v, %v), want the solver's (%v, %v)", conf, nu, got, gotErr, want, wantErr)
		}
	}
	for _, conf := range []float64{0, 1, -0.5, math.NaN(), 0.9, 0.99} {
		solverAgrees(conf, 3)
	}
	for _, nu := range []int{0, -1, tCritMaxNu + 1} {
		solverAgrees(0.95, nu)
	}
	for nu := range c {
		if c[nu].Load() != 0 {
			t.Errorf("entry ν=%d was filled by an input outside the table", nu)
		}
	}
}

// TestStudentTCriticalHitAllocs: a table hit, and so the convergence
// check of a measurement, allocates nothing.
func TestStudentTCriticalHitAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := NewSample(100, 101, 99, 100.5)
	if _, err := s.ConfidenceHalfWidth(0.95); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tCrit.critical(0.95, 3); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.WithinPrecision(0.95, 0.025); !ok {
			t.Fatal("sample should have converged")
		}
	})
	if allocs != 0 {
		t.Errorf("a t* table hit allocates %.1f objects, want 0", allocs)
	}
}
