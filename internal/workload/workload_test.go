package workload

import "testing"

func TestSpMVWork(t *testing.T) {
	// Small matrices are dense within the band.
	if got := SpMVNNZPerRow(5); got != 5 {
		t.Errorf("SpMVNNZPerRow(5) = %d, want 5", got)
	}
	if got := SpMVNNZPerRow(4096); got != SpMVBand {
		t.Errorf("SpMVNNZPerRow(4096) = %d, want %d", got, SpMVBand)
	}
	if got, want := SpMVFlops(1000), 2*1000.0*float64(SpMVBand); got != want {
		t.Errorf("SpMVFlops(1000) = %g, want %g", got, want)
	}
	if SpMVBytes(1000) <= 0 {
		t.Error("SpMVBytes must be positive")
	}
}

func TestBandwidthBoundIntensity(t *testing.T) {
	// Both families must sit far below typical ridge points: that is
	// the structural property the scenario-diversity item asks for.
	for _, n := range []int{64, 512, 4096} {
		if ai := SpMVFlops(n) / SpMVBytes(n); ai <= 0 || ai >= 1 {
			t.Errorf("SpMV intensity at n=%d is %g, want (0,1)", n, ai)
		}
		if ai := StencilFlops(n) / StencilBytes(n); ai <= 0 || ai >= 1 {
			t.Errorf("stencil intensity at n=%d is %g, want (0,1)", n, ai)
		}
	}
}

func TestWorkScalesQuadratically(t *testing.T) {
	// Doubling n quadruples a sweep's flops and bytes (and, in the
	// banded regime, doubles SpMV's).
	if got, want := StencilFlops(128), 4*StencilFlops(64); got != want {
		t.Errorf("StencilFlops(128) = %g, want %g", got, want)
	}
	if got, want := StencilBytes(128), 4*StencilBytes(64); got != want {
		t.Errorf("StencilBytes(128) = %g, want %g", got, want)
	}
	if got, want := SpMVFlops(256), 2*SpMVFlops(128); got != want {
		t.Errorf("SpMVFlops(256) = %g, want %g", got, want)
	}
}
