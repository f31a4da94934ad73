package fault

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"energyprop/internal/device"
	"energyprop/internal/meter"
)

// openDev opens a registered device or fails the test.
func openDev(t testing.TB, name string) device.Device {
	t.Helper()
	d, err := device.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// oneConfig returns the device's first enumerated configuration.
func oneConfig(t testing.TB, dev device.Device, w device.Workload) device.Config {
	t.Helper()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) == 0 {
		t.Fatal("device enumerated no configurations")
	}
	return configs[0]
}

func testWorkload() device.Workload {
	return device.Workload{N: 1024, Products: 1}.Normalized()
}

// TestWrapValidates: bad plans and nil devices are rejected.
func TestWrapValidates(t *testing.T) {
	dev := openDev(t, "p100")
	if _, err := Wrap(nil, Plan{}); err == nil {
		t.Error("nil device accepted")
	}
	for _, plan := range []Plan{
		{Transient: -0.1},
		{Drop: 1.5},
		{Outlier: math.NaN()},
		{Transient: 0.5, Drop: 0.4, Outlier: 0.2},
		{Latency: -time.Second},
	} {
		if _, err := Wrap(dev, plan); err == nil {
			t.Errorf("invalid plan %+v accepted", plan)
		}
	}
	if _, err := Wrap(dev, Plan{Transient: 0.3, Drop: 0.3, Outlier: 0.3, Latency: time.Millisecond}); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestScheduleDeterministic: the same plan against the same call
// sequence injects the identical fault on every replay, regardless of
// interleaving with other configurations.
func TestScheduleDeterministic(t *testing.T) {
	dev := openDev(t, "p100")
	w := testWorkload()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) < 2 {
		t.Fatal("need at least two configurations")
	}
	plan := Plan{Seed: 7, Transient: 0.5}
	outcomes := func(order []int) []bool {
		f, err := Wrap(dev, plan)
		if err != nil {
			t.Fatal(err)
		}
		res := make([]bool, len(order))
		for i, idx := range order {
			_, err := f.Run(context.Background(), w, configs[idx])
			res[i] = errors.Is(err, ErrTransient)
		}
		return res
	}
	// Each config runs twice; the second pass reverses the interleaving.
	// Per-config attempt counters must make the schedule identical.
	a := outcomes([]int{0, 1, 0, 1})
	b := outcomes([]int{0, 1, 1, 0})
	// a: c0#1, c1#1, c0#2, c1#2 ; b: c0#1, c1#1, c1#2, c0#2.
	if a[0] != b[0] || a[1] != b[1] || a[2] != b[3] || a[3] != b[2] {
		t.Errorf("schedule depends on interleaving: %v vs %v", a, b)
	}
	if c := outcomes([]int{0, 1, 0, 1}); !equalBools(a, c) {
		t.Errorf("schedule not reproducible: %v vs %v", a, c)
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTransientCertain: probability 1 always fails with ErrTransient and
// counts in Stats.
func TestTransientCertain(t *testing.T) {
	dev := openDev(t, "p100")
	w := testWorkload()
	c := oneConfig(t, dev, w)
	f, err := Wrap(dev, Plan{Seed: 1, Transient: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Run(context.Background(), w, c); !errors.Is(err, ErrTransient) {
			t.Fatalf("attempt %d: got %v, want ErrTransient", i+1, err)
		}
	}
	s := f.Stats()
	if s.Runs != 3 || s.Transients != 3 || s.Injected() != 3 {
		t.Errorf("stats %+v, want 3 runs / 3 transients", s)
	}
}

// TestCorruptionDetectedByMeter: drop and outlier windows are always
// observed by a campaign-style meter and fail with ErrCorruptSample —
// never silently shifted energy.
func TestCorruptionDetectedByMeter(t *testing.T) {
	dev := openDev(t, "p100")
	w := testWorkload()
	c := oneConfig(t, dev, w)
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"drop", Plan{Seed: 3, Drop: 1}},
		{"outlier", Plan{Seed: 3, Outlier: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Wrap(dev, tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			out, err := f.Run(context.Background(), w, c)
			if err != nil {
				t.Fatalf("corrupted run failed early: %v", err)
			}
			m := meter.NewMeter(dev.Spec().IdlePowerW, 1)
			// Match the campaign's sampling guarantee: >= 50 samples/run.
			if d := out.Run.Duration(); d/50 < m.SampleInterval {
				m.SampleInterval = d / 50
			}
			if _, err := m.MeasureRun(out.Run); !errors.Is(err, meter.ErrCorruptSample) {
				t.Errorf("measurement of corrupted profile returned %v, want ErrCorruptSample", err)
			}
		})
	}
}

// TestCorruptionOutsideWindowBitExact: a corrupted profile is bit-exact
// the clean profile outside its window — surviving retries can only
// reproduce fault-free bytes.
func TestCorruptionOutsideWindowBitExact(t *testing.T) {
	dev := openDev(t, "p100")
	w := testWorkload()
	c := oneConfig(t, dev, w)
	clean, err := dev.Run(context.Background(), w, c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Wrap(dev, Plan{Seed: 3, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Run(context.Background(), w, c)
	if err != nil {
		t.Fatal(err)
	}
	d := out.Run.Duration()
	if math.Float64bits(d) != math.Float64bits(clean.Run.Duration()) {
		t.Fatalf("corrupted profile changed duration: %v vs %v", d, clean.Run.Duration())
	}
	nan, same := 0, 0
	for i := 0; i <= 200; i++ {
		tm := d * float64(i) / 200
		p := out.Run.PowerAt(tm)
		if math.IsNaN(p) {
			nan++
			continue
		}
		if math.Float64bits(p) == math.Float64bits(clean.Run.PowerAt(tm)) {
			same++
		}
	}
	if nan == 0 {
		t.Error("no NaN window observed in 201 samples of a certain drop")
	}
	if nan+same != 201 {
		t.Errorf("%d samples are neither NaN nor bit-exact clean", 201-nan-same)
	}
}

// TestLatencyInjection: latency delays the run and honors context
// cancellation.
func TestLatencyInjection(t *testing.T) {
	dev := openDev(t, "p100")
	w := testWorkload()
	c := oneConfig(t, dev, w)
	f, err := Wrap(dev, Plan{Seed: 9, Latency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(context.Background(), w, c); err != nil {
		t.Fatalf("latency-only plan failed the run: %v", err)
	}
	if s := f.Stats(); s.Delays != 1 || s.Injected() != 0 {
		t.Errorf("stats %+v, want 1 delay and 0 injected failures", s)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f2, err := Wrap(dev, Plan{Seed: 9, Latency: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Run(ctx, w, c); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled latency sleep returned %v, want context.Canceled", err)
	}
}

// TestAttemptSeedDistinct: the hash separates configs and attempts.
func TestAttemptSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, key := range []string{"bs=1/g=1/r=1", "bs=2/g=1/r=1", "contiguous/p=1/t=1"} {
		for attempt := 1; attempt <= 4; attempt++ {
			s := device.AttemptSeed(42, key, int64(attempt))
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %q#%d and %s", key, attempt, prev)
			}
			seen[s] = key
		}
	}
	if device.AttemptSeed(1, "k", 1) == device.AttemptSeed(2, "k", 1) {
		t.Error("plan seed does not separate schedules")
	}
}

// Injected sums the injected fault classes (latency excluded — it
// delays but never fails a run).
func (s Stats) Injected() int { return s.Transients + s.Drops + s.Outliers }
