package dense

import "testing"

// TestGemmPackedSteadyStateAllocs: the packed kernel's pack buffer is
// pooled, so a serial blocked GEMM allocates nothing once warm.
func TestGemmPackedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	const n = 96
	a, b := MustMatrix(n, n), MustMatrix(n, n)
	a.FillRandom(1)
	b.FillRandom(2)
	c := MustMatrix(n, n)
	allocs := testing.AllocsPerRun(10, func() {
		if err := GemmBlocked(VariantPacked, 1, a, b, 0, c, 0, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("packed GEMM allocates %.1f objects per run in steady state, want 0", allocs)
	}
}
