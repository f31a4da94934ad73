package campaign

import (
	"bytes"
	"context"
	"os"
	"testing"
	"time"

	"energyprop/internal/device"
	"energyprop/internal/parindex"
)

// TestCachedCampaignByteIdentical is the cache's correctness bar: with
// the cache off, cold, and warm, the serialized record must be
// byte-identical on every backend kind.
func TestCachedCampaignByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    device.Workload
	}{
		{"p100", smallWorkload()},
		{"haswell", device.Workload{N: 48, Products: 1}},
		{"hetero", device.Workload{N: 256, Products: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := openDev(t, tc.name)
			uncached := streamRecordBytes(t, dev, tc.w, DefaultSpec(31))

			spec := DefaultSpec(31)
			spec.Cache = NewPointCache(0)
			cold := streamRecordBytes(t, dev, tc.w, spec)
			warm := streamRecordBytes(t, dev, tc.w, spec)

			if !bytes.Equal(uncached, cold) {
				t.Errorf("uncached and cold-cache records differ:\nuncached: %s\ncold:     %s", uncached, cold)
			}
			if !bytes.Equal(uncached, warm) {
				t.Errorf("uncached and warm-cache records differ:\nuncached: %s\nwarm:     %s", uncached, warm)
			}
			s := spec.Cache.Stats()
			if s.Misses == 0 || s.Hits == 0 {
				t.Errorf("stats = %+v: the cold run should miss and the warm run should hit", s)
			}
		})
	}
}

// TestCacheKeySeparatesSeedsAndWorkloads: different seeds or workloads
// must never share a cache entry — a hit across them would silently
// return the wrong measurement.
func TestCacheKeySeparatesSeedsAndWorkloads(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	cache := NewPointCache(0)

	spec1 := DefaultSpec(1)
	spec1.Cache = cache
	a := streamRecordBytes(t, dev, w, spec1)

	spec2 := DefaultSpec(2)
	spec2.Cache = cache
	b := streamRecordBytes(t, dev, w, spec2)
	if bytes.Equal(a, b) {
		t.Fatal("seed 1 and seed 2 campaigns serialized identically; the cache aliased them")
	}
	if s := cache.Stats(); s.Hits != 0 {
		t.Fatalf("stats = %+v: the seed-2 campaign must not hit seed-1 entries", s)
	}

	// A different Products count through the same cache must also stand
	// apart (its config space differs, but the workload is in the key
	// regardless).
	w2 := device.Workload{N: w.N, Products: 4}
	spec3 := DefaultSpec(1)
	spec3.Cache = cache
	if _, err := runAll(dev, w2, spec3); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Hits != 0 {
		t.Fatalf("stats = %+v: the Products=4 campaign must not hit Products=2 entries", s)
	}
}

// TestCacheSingleflightCollapsesIdenticalPoints: a campaign over a
// config list that repeats one configuration must run the device
// exactly once for it, whatever the worker count — repeats are either
// singleflight joins or plain hits, never second measurements.
func TestCacheSingleflightCollapsesIdenticalPoints(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	c := configs[0]
	repeated := []device.Config{c, c, c, c, c, c}

	spec := DefaultSpec(5)
	spec.Workers = 4
	spec.Cache = NewPointCache(0)
	res, err := RunConfigs(context.Background(), dev, w, repeated, spec)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Points[0]
	for i, p := range res.Points {
		if p.MeasuredEnergyJ != first.MeasuredEnergyJ || p.Runs != first.Runs {
			t.Fatalf("point %d differs from point 0: the cache returned a different measurement for the same key", i)
		}
	}
	s := spec.Cache.Stats()
	if s.Misses != 1 {
		t.Fatalf("stats = %+v: %d identical points must trigger exactly one measurement", s, len(repeated))
	}
	if s.Hits+s.Dedups != uint64(len(repeated)-1) {
		t.Fatalf("stats = %+v: the other %d points must be hits or singleflight joins", s, len(repeated)-1)
	}
}

// TestCacheEvictionBoundHolds runs a campaign through a cache smaller
// than the config space: the store must stay at its bound and count the
// overflow as evictions.
func TestCacheEvictionBoundHolds(t *testing.T) {
	dev := openDev(t, "haswell")
	w := device.Workload{N: 48, Products: 1}
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) < 3 {
		t.Skipf("want >= 3 configs, got %d", len(configs))
	}
	bound := 2
	spec := DefaultSpec(9)
	spec.Workers = 1
	spec.Cache = NewPointCache(bound)
	if _, err := runAll(dev, w, spec); err != nil {
		t.Fatal(err)
	}
	s := spec.Cache.Stats()
	if s.Size != bound {
		t.Fatalf("size = %d, want the bound %d", s.Size, bound)
	}
	if want := uint64(len(configs) - bound); s.Evictions != want {
		t.Fatalf("evictions = %d, want %d for %d configs through a bound of %d",
			s.Evictions, want, len(configs), bound)
	}
}

// sweepElapsed measures the wall-clock of one full campaign.
func sweepElapsed(t testing.TB, dev device.Device, w device.Workload, spec Spec) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := runAll(dev, w, spec); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// TestWarmCacheFasterThanCold is the CI sanity guard for the
// memoization layer: a warm repeat of the example sweep must beat the
// cold run. It is timing-based, so it only runs when EP_CACHE_SANITY=1
// (the dedicated CI step); the threshold is generous — a warm sweep
// skips every device run and meter loop, so even a noisy CI host clears
// 2x easily (the benchmark below shows the real margin).
func TestWarmCacheFasterThanCold(t *testing.T) {
	if os.Getenv("EP_CACHE_SANITY") != "1" {
		t.Skip("timing-based; set EP_CACHE_SANITY=1 to run (CI cache step)")
	}
	dev := openDev(t, "p100")
	w := device.Workload{N: 10240, Products: 8}
	spec := DefaultSpec(1)
	spec.Cache = NewPointCache(0)
	cold := sweepElapsed(t, dev, w, spec)
	warm := sweepElapsed(t, dev, w, spec)
	t.Logf("cold=%v warm=%v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if warm*2 >= cold {
		t.Fatalf("warm sweep %v is not at least 2x faster than cold %v", warm, cold)
	}
}

// BenchmarkSweepColdVsWarm quantifies the memoization win on an
// overlapping pair of sweeps: every iteration measures a 110-point P100
// campaign. The cold case starts from an empty cache each time; the
// overlap=100% case repeats the same sweep against a warm cache; the
// overlap=50% case alternates two seeds so half the iterations rerun a
// previously-seen campaign. Compare ns/op: warm must be >= 5x faster
// than cold (in practice it is orders of magnitude).
func BenchmarkSweepColdVsWarm(b *testing.B) {
	dev := openDev(b, "p100")
	w := device.Workload{N: 10240, Products: 8}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec := DefaultSpec(1)
			spec.Cache = NewPointCache(0)
			if _, err := runAll(dev, w, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-overlap=100", func(b *testing.B) {
		spec := DefaultSpec(1)
		spec.Cache = NewPointCache(0)
		if _, err := runAll(dev, w, spec); err != nil {
			b.Fatal(err) // prime
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runAll(dev, w, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-overlap=50", func(b *testing.B) {
		cache := NewPointCache(0)
		for _, seed := range []int64{1, 2} {
			spec := DefaultSpec(seed)
			spec.Cache = cache
			if _, err := runAll(dev, w, spec); err != nil {
				b.Fatal(err) // prime both halves
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Half the work re-measures seed 1, half seed 2: a sweep
			// pair with 50% overlap against either one alone.
			spec := DefaultSpec(int64(1 + i%2))
			spec.Cache = cache
			if _, err := runAll(dev, w, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarmSweepStream is the warm /sweep path in process: a primed
// P100 10240×8 sweep (110 points, every one a cache hit) streamed
// serially through a compact RecordSink, an IndexSink and a
// CountingSink, as the service's sweep handler fans it out. What it
// allocates per op is the per-point identity and encoding cost, so
// BENCH_BUDGET.json holds its allocs/op.
func BenchmarkWarmSweepStream(b *testing.B) {
	dev := openDev(b, "p100")
	w := device.Workload{N: 10240, Products: 8}
	configs, err := dev.Configs(w)
	if err != nil {
		b.Fatal(err)
	}
	spec := DefaultSpec(1)
	spec.Workers = 1
	spec.Cache = NewPointCache(0)
	x := parindex.NewIndex()
	var body bytes.Buffer
	sweep := func() {
		body.Reset()
		rs, err := NewRecordSink(&body, dev, w, true)
		if err != nil {
			b.Fatal(err)
		}
		sink := MultiSink{rs, NewIndexSink(x, dev.Name(), w), &CountingSink{}}
		if err := Stream(context.Background(), dev, w, configs, spec, sink); err != nil {
			b.Fatal(err)
		}
	}
	sweep() // prime the cache and the index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
