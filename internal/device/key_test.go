package device

import (
	"fmt"
	"testing"

	"energyprop/internal/dense"
	"energyprop/internal/gpusim"
)

// TestConfigKeysMatchFormatted pins the concatenated Key and String of
// every parameterised config type to the fmt verbs they replaced: memo
// keys, meter seeds and record fields all hash or print these strings,
// so they must not change by a byte.
func TestConfigKeysMatchFormatted(t *testing.T) {
	check := func(got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
	ints := []int{0, 1, 7, 24, 32, 1024, -3}
	for _, a := range ints {
		for _, b := range ints {
			for _, c := range ints {
				g := GPUPoint{C: gpusim.MatMulConfig{BS: a, G: b, R: c}}
				check(g.Key(), fmt.Sprintf("bs=%d/g=%d/r=%d", a, b, c))
			}
			for _, part := range []dense.Partition{dense.PartitionContiguous, dense.PartitionCyclic, dense.Partition(9)} {
				p := CPUPoint{C: dense.Config{Groups: a, ThreadsPerGroup: b, Partition: part}}
				check(p.Key(), fmt.Sprintf("%s/p=%d/t=%d", part, a, b))
			}
		}
		check(SpMVPoint{Lanes: a}.Key(), fmt.Sprintf("lanes=%d", a))
		check(SpMVPoint{Lanes: a}.String(), fmt.Sprintf("(lanes=%d)", a))
		check(StencilPoint{Tile: a}.Key(), fmt.Sprintf("tile=%d", a))
		check(StencilPoint{Tile: a}.String(), fmt.Sprintf("(tile=%d)", a))
	}
}
