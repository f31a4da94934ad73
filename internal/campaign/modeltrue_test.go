package campaign

import (
	"context"
	"math"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/fault"
)

// TestModelTrueSkipsMeter: a model-true campaign over a device whose
// every power profile loses samples (Drop: 1) still succeeds, because it
// never builds a meter. Each point reports the model's ground truth as
// its measurement, with no repetitions and no interval. The same device
// under a measured campaign fails every point, which shows the fault
// really bites.
func TestModelTrueSkipsMeter(t *testing.T) {
	inner := openDev(t, "p100")
	w := smallWorkload()
	dev, err := fault.Wrap(inner, fault.Plan{Seed: 3, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunConfigs(context.Background(), dev, w, configs, Spec{ModelTrue: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || len(res.Points) != len(configs) || res.TotalRuns != 0 {
		t.Fatalf("%d points, %d failed, %d runs; want %d points, none failed, 0 runs",
			len(res.Points), len(res.Failed), res.TotalRuns, len(configs))
	}
	for i, p := range res.Points {
		out, err := inner.Run(context.Background(), w, configs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(p.TrueSeconds) != math.Float64bits(out.TrueSeconds) ||
			math.Float64bits(p.TrueEnergyJ) != math.Float64bits(out.TrueEnergyJ) ||
			math.Float64bits(p.MeasuredEnergyJ) != math.Float64bits(out.TrueEnergyJ) {
			t.Errorf("%s: point %+v, want the model's t=%v E=%v", configs[i].Key(), p, out.TrueSeconds, out.TrueEnergyJ)
		}
		if p.Runs != 0 || p.HalfWidthJ != 0 || p.Attempts != 1 {
			t.Errorf("%s: runs=%d halfwidth=%v attempts=%d, want 0, 0, 1", configs[i].Key(), p.Runs, p.HalfWidthJ, p.Attempts)
		}
	}

	spec := DefaultSpec(3)
	spec.ContinueOnError = true
	measured, err := RunConfigs(context.Background(), dev, w, configs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(measured.Points) != 0 {
		t.Errorf("measured campaign kept %d points under Drop: 1, want none", len(measured.Points))
	}
}

// TestModelTrueKeyDoesNotAliasMeasured: a model-true point and a
// measured point of the same (device, workload, config, seed) live
// under different cache keys, so one shared cache holds both. A
// model-true key ignores the seed, so a second model-true campaign
// under another seed hits.
func TestModelTrueKeyDoesNotAliasMeasured(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	c := configByKey(t, dev, w, "bs=16/g=1/r=2")
	cache := NewPointCache(0)

	measured := DefaultSpec(7)
	measured.Cache = cache
	mres, err := RunConfigs(context.Background(), dev, w, []device.Config{c}, measured)
	if err != nil {
		t.Fatal(err)
	}
	modelTrue := Spec{ModelTrue: true, Seed: 7, Cache: cache}
	tres, err := RunConfigs(context.Background(), dev, w, []device.Config{c}, modelTrue)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses and 0 hits", s)
	}
	if mres.Points[0].Runs == 0 || tres.Points[0].Runs != 0 {
		t.Errorf("measured runs=%d, model-true runs=%d: the cache aliased the two", mres.Points[0].Runs, tres.Points[0].Runs)
	}

	modelTrue.Seed = 8
	if _, err := RunConfigs(context.Background(), dev, w, []device.Config{c}, modelTrue); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want the seed-8 model-true point to hit", s)
	}
}

// TestMeasuredPointKeyPinned: the measured-point key is a persistent
// identity (a shared cache outlives code changes only if it is stable),
// so its digest for one fixed point is pinned.
func TestMeasuredPointKeyPinned(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload().Normalized()
	c := configByKey(t, dev, w, "bs=16/g=1/r=2")
	spec := DefaultSpec(7)
	spec.SpikeProb = 0.01
	spec.Measure.RejectOutliersK = 3
	const want = "ffd192a517e2f48b31160896906aaab19efe640f267ce31414484d75fdbe1aed"
	if got := pointKey(dev, w, c, spec); got != want {
		t.Errorf("pointKey = %s, want %s", got, want)
	}
}

// TestModelTruePointKeyPinned pins the model-true key the same way,
// through its own domain tag and without the spec tail.
func TestModelTruePointKeyPinned(t *testing.T) {
	dev := openDev(t, "haswell")
	w := smallWorkload().Normalized()
	c := configByKey(t, dev, w, "contiguous/p=1/t=4")
	const want = "ea41c1bfdaebc5008ea9a82c06af2e30f73b5751d51e025283f15f72fc48d125"
	if got := pointKey(dev, w, c, Spec{ModelTrue: true, Seed: 7}); got != want {
		t.Errorf("pointKey = %s, want %s", got, want)
	}
}

// pointKey is pointPrefix applied to a single configuration: the key a
// campaign gives that point.
func pointKey(dev device.Device, w device.Workload, c device.Config, spec Spec) string {
	return pointPrefix(dev, w, spec).Digest(c.Key())
}
