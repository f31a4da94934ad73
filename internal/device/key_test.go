package device

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
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
				check(g.String(), fmt.Sprintf("(BS=%d, G=%d, R=%d)", a, b, c))
			}
			for _, part := range []dense.Partition{dense.PartitionContiguous, dense.PartitionCyclic, dense.Partition(9)} {
				p := CPUPoint{C: dense.Config{Groups: a, ThreadsPerGroup: b, Partition: part}}
				check(p.Key(), fmt.Sprintf("%s/p=%d/t=%d", part, a, b))
				check(p.String(), fmt.Sprintf("(%s, p=%d, t=%d)", part, a, b))
			}
		}
		check(SpMVPoint{Lanes: a}.Key(), fmt.Sprintf("lanes=%d", a))
		check(SpMVPoint{Lanes: a}.String(), fmt.Sprintf("(lanes=%d)", a))
		check(StencilPoint{Tile: a}.Key(), fmt.Sprintf("tile=%d", a))
		check(StencilPoint{Tile: a}.String(), fmt.Sprintf("(tile=%d)", a))
	}
	labels := [maxHeteroProcs]string{"haswell", "k40c", "p100", "x"}
	for np := 0; np <= maxHeteroProcs; np++ {
		h := HeteroPoint{Units: [maxHeteroProcs]int{2, 0, 31, -1}, Labels: labels, NP: np}
		parts := make([]string, np)
		for i := range parts {
			parts[i] = fmt.Sprintf("%s=%d", h.Labels[i], h.Units[i])
		}
		check(h.Key(), strings.Join(parts, "/"))
		check(h.String(), "("+strings.Join(parts, ", ")+")")
	}
}

// TestKeySeedMatchesFNV pins the inlined hash behind KeySeed (and so
// ConfigSeed) to hash/fnv's FNV-1a over the little-endian seed and the
// key bytes, the form every meter seed has been derived with.
func TestKeySeedMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64}
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	for i, seed := range seeds {
		key := make([]byte, rng.Intn(64))
		rng.Read(key)
		if i%2 == 0 {
			key = []byte("pol=race/s=1.5/f=0.3/contiguous/p=2/t=12")[:len(key)%41]
		}
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(seed))
		h.Write(buf[:])
		h.Write(key)
		if got, want := KeySeed(seed, string(key)), int64(h.Sum64()); got != want {
			t.Fatalf("KeySeed(%d, %q) = %d, want %d", seed, key, got, want)
		}
	}
	c := GPUPoint{C: gpusim.MatMulConfig{BS: 24, G: 1, R: 8}}
	if got, want := ConfigSeed(7, c), KeySeed(7, c.Key()); got != want {
		t.Errorf("ConfigSeed = %d, KeySeed = %d", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = KeySeed(7, "contiguous/p=2/t=12") }); n != 0 {
		t.Errorf("KeySeed allocates %.0f times", n)
	}
}
