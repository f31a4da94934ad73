package randsrc

import (
	"math"
	"math/rand"
	"testing"
)

// seeded returns a Source seeded with seed, as rand.NewSource(seed) is.
func seeded(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// equivalenceSeeds cover the reduction's edge cases: zero (math/rand's
// stand-in seed), both signs, the stand-in value itself, the modulus and
// its neighbours, and the int64 extremes.
var equivalenceSeeds = []int64{
	0, 1, -1, 89482311, 1<<31 - 1, 1 << 31, -(1<<31 - 1), math.MinInt64, math.MaxInt64,
}

// sameDraws checks n draws of every rand.Rand method the product calls
// (Float64, NormFloat64) plus the integer paths (Int63, Uint64, Intn,
// Int63n) against a reference generator, bit for bit.
func sameDraws(t *testing.T, label string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w uint64
		switch i % 6 {
		case 0:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 1:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 2:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 3:
			g, w = got.Uint64(), want.Uint64()
		case 4:
			g, w = uint64(got.Intn(1000)), uint64(want.Intn(1000))
		case 5:
			g, w = uint64(got.Int63n(1<<40+7)), uint64(want.Int63n(1<<40+7))
		}
		if g != w {
			t.Fatalf("%s: draw %d (method %d) = %#x, math/rand gives %#x", label, i, i%6, g, w)
		}
	}
}

// TestSourceMatchesMathRand: for every edge-case seed the source draws
// exactly math/rand's sequence, freshly built, after a Seed on a used
// generator, and through the pool: 10,000 draws of each method.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 6 * 10000
	used := rand.New(seeded(12345))
	used.Float64()
	for _, seed := range equivalenceSeeds {
		sameDraws(t, "fresh", rand.New(seeded(seed)), rand.New(rand.NewSource(seed)), draws)

		used.Seed(seed)
		sameDraws(t, "reseeded", used, rand.New(rand.NewSource(seed)), draws)

		r := Get(seed)
		sameDraws(t, "pooled", r, rand.New(rand.NewSource(seed)), draws)
		Put(r)
	}
}

// TestMulModMatchesDivision pins the Mersenne fold to the % operator on
// the extremes of its input range.
func TestMulModMatchesDivision(t *testing.T) {
	vals := []uint64{0, 1, 2, lcgMul, m31 - 1, m31 - 2, 1 << 30, 123456789}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := mulMod(a, b), a*b%m31; got != want {
				t.Errorf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestGetDoesNotAllocate: a reseed from the pool reuses the register.
func TestGetDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts")
	}
	Put(Get(1))
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		r := Get(seed)
		r.Float64()
		Put(r)
	})
	if allocs != 0 {
		t.Errorf("Get+Float64+Put allocates %.1f objects, want 0", allocs)
	}
}

func BenchmarkSeed(b *testing.B) {
	s := new(Source)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}

func BenchmarkMathRandSeed(b *testing.B) {
	s := rand.NewSource(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
	}
}
