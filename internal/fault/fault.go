// Package fault injects deterministic, reproducible failures into the
// measurement pipeline so campaigns, the HTTP service, and the CLIs can
// be tested — and operated — under the failure modes a real WattsUp
// deployment exhibits: meters drop samples, kernels fail transiently,
// glitched readings produce impossible power values, and slow devices
// stretch wall-clock time.
//
// The injector wraps any device.Device. Its fault schedule is a pure
// function of (plan seed, configuration key, attempt number), hashed by
// device.AttemptSeed — device.ConfigSeed's hash continued over the
// attempt: no wall clock, no global rand, no dependence on sweep order
// or worker count. Replaying a plan against the same call sequence
// reproduces the exact same faults, which is what makes the chaos
// harness's core invariant testable — points that survive injection
// (directly or after retries) are byte-identical to a fault-free
// campaign.
//
// Fault taxonomy (one class is drawn per Run attempt, classes are
// mutually exclusive; latency is orthogonal and can accompany any draw):
//
//   - transient: Run fails with ErrTransient before touching the
//     simulator — a launch failure or a meter-API timeout. Retrying the
//     attempt re-rolls the schedule.
//   - drop: the outcome's power profile reads NaN inside one window —
//     the meter lost samples. The meter detects the corrupt reading
//     (meter.ErrCorruptSample) and the measurement fails loudly instead
//     of silently integrating garbage.
//   - outlier: the profile reads an impossible negative value inside one
//     window — a sign-flip register glitch. Detected the same way.
//   - latency: Run sleeps a deterministic duration (bounded by the
//     plan's Latency) before returning, honoring context cancellation —
//     the knob that exercises deadlines and retry budgets.
//
// Corruption is always *detectable*: injected faults surface as errors,
// never as silently shifted floats, so a retried point re-measures from
// a fresh meter and reproduces the fault-free bytes exactly.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"energyprop/internal/device"
	"energyprop/internal/meter"
	"energyprop/internal/randsrc"
)

// ErrTransient marks an injected transient device failure. Callers
// distinguish it with errors.Is; retry policies treat it like any other
// non-context error.
var ErrTransient = errors.New("fault: injected transient device failure")

// Plan is a deterministic fault schedule. Probabilities are per Run
// attempt and mutually exclusive (their sum must be <= 1); the class
// drawn for a given (configuration, attempt) pair depends only on the
// plan seed and that pair.
type Plan struct {
	// Seed drives the schedule. Two plans with the same seed and
	// probabilities inject identical faults against identical call
	// sequences.
	Seed int64
	// Transient is the probability that Run fails with ErrTransient.
	Transient float64
	// Drop is the probability that the outcome's power profile carries a
	// NaN dropout window.
	Drop float64
	// Outlier is the probability that the profile carries an impossible
	// negative-reading window.
	Outlier float64
	// Latency bounds the artificial delay injected into every Run call
	// (the drawn delay is uniform in [Latency/2, Latency)). Zero
	// disables latency injection.
	Latency time.Duration
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.Transient > 0 || p.Drop > 0 || p.Outlier > 0 || p.Latency > 0
}

// Validate checks the plan's ranges.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"transient", p.Transient}, {"drop", p.Drop}, {"outlier", p.Outlier}} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: %s probability %v out of [0, 1]", f.name, f.v)
		}
	}
	if sum := p.Transient + p.Drop + p.Outlier; sum > 1 {
		return fmt.Errorf("fault: class probabilities sum to %v > 1", sum)
	}
	if p.Latency < 0 {
		return fmt.Errorf("fault: negative latency %v", p.Latency)
	}
	return nil
}

// Stats counts the faults a Device has injected. Counters are totals
// since Wrap; read them with Device.Stats.
type Stats struct {
	// Runs is the number of Run attempts observed.
	Runs int
	// Transients, Drops, and Outliers count injected fault classes.
	Transients int
	Drops      int
	Outliers   int
	// Delays counts Run calls that slept an injected latency.
	Delays int
}

// Injected sums the injected fault classes (latency excluded — it
// delays but never fails a run).
func (s Stats) Injected() int { return s.Transients + s.Drops + s.Outliers }

// Device wraps an inner device.Device with the plan's fault schedule.
// It passes Name, Kind, Spec, and Configs through unchanged: a wrapped
// device measures the same physical identity, and every point that
// survives injection carries values byte-identical to the unwrapped
// device's (faults fail loudly, they never shift floats). That identity
// is why a fault-wrapped device may share a campaign.PointCache with
// its unwrapped registry twin.
type Device struct {
	inner device.Device
	plan  Plan

	mu sync.Mutex
	// attempts tracks per-configuration Run attempts, so the schedule
	// for a config's k-th attempt is the same whether the campaign runs
	// serial, parallel, or shuffled.
	attempts map[string]int
	stats    Stats
}

// Wrap builds the fault-injecting wrapper around dev.
func Wrap(dev device.Device, plan Plan) (*Device, error) {
	if dev == nil {
		return nil, errors.New("fault: nil device")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Device{inner: dev, plan: plan, attempts: map[string]int{}}, nil
}

// Name implements device.Device.
func (f *Device) Name() string { return f.inner.Name() }

// Kind implements device.Device.
func (f *Device) Kind() string { return f.inner.Kind() }

// Spec implements device.Device.
func (f *Device) Spec() device.Spec { return f.inner.Spec() }

// Configs implements device.Device; enumeration is never faulted (a
// campaign that cannot even list its points has nothing to degrade to).
func (f *Device) Configs(w device.Workload) ([]device.Config, error) { return f.inner.Configs(w) }

// Stats snapshots the injection counters.
func (f *Device) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// nextAttempt claims the next attempt number (1-based) for a config key
// and returns it.
func (f *Device) nextAttempt(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts[key]++
	f.stats.Runs++
	return f.attempts[key]
}

// count applies a counter update under the lock.
func (f *Device) count(fn func(*Stats)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(&f.stats)
}

// fault classes drawn per attempt.
const (
	faultNone = iota
	faultTransient
	faultDrop
	faultOutlier
)

// draw resolves an attempt's schedule. The rng is consumed in a fixed
// documented order (class, window position, latency fraction) so every
// decision is reproducible from the attempt seed alone.
func (f *Device) draw(key string, attempt int) (class int, windowFrac float64, delay time.Duration) {
	rng := randsrc.Get(device.AttemptSeed(f.plan.Seed, key, int64(attempt)))
	defer randsrc.Put(rng)
	u := rng.Float64()
	switch {
	case u < f.plan.Transient:
		class = faultTransient
	case u < f.plan.Transient+f.plan.Drop:
		class = faultDrop
	case u < f.plan.Transient+f.plan.Drop+f.plan.Outlier:
		class = faultOutlier
	}
	windowFrac = rng.Float64()
	if f.plan.Latency > 0 {
		delay = time.Duration((0.5 + 0.5*rng.Float64()) * float64(f.plan.Latency))
	}
	return class, windowFrac, delay
}

// Run implements device.Device with the plan's schedule applied to this
// attempt. Injected latency honors ctx: a cancelled context interrupts
// the sleep and returns ctx.Err().
func (f *Device) Run(ctx context.Context, w device.Workload, c device.Config) (*device.Outcome, error) {
	key := c.Key()
	attempt := f.nextAttempt(key)
	class, windowFrac, delay := f.draw(key, attempt)
	if delay > 0 {
		f.count(func(s *Stats) { s.Delays++ })
		if err := sleepCtx(ctx, delay); err != nil {
			return nil, err
		}
	}
	if class == faultTransient {
		f.count(func(s *Stats) { s.Transients++ })
		return nil, fmt.Errorf("%w (config %s, attempt %d)", ErrTransient, key, attempt)
	}
	out, err := f.inner.Run(ctx, w, c)
	if err != nil || class == faultNone {
		return out, err
	}
	switch class {
	case faultDrop:
		f.count(func(s *Stats) { s.Drops++ })
	case faultOutlier:
		f.count(func(s *Stats) { s.Outliers++ })
	}
	faulted := *out
	faulted.Run = corruptProfile(out.Run, class, windowFrac)
	return &faulted, nil
}

// sleepCtx waits for d or for ctx cancellation, whichever comes first.
// This is the one place the fault injector touches real time on a
// measurement path: injected latency must actually delay the caller to
// exercise timeout/retry handling, while the measured record itself
// stays model-derived — the chaos harness proves surviving points are
// byte-identical to fault-free campaigns.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	//lint:ignore purerun injected latency is wall time by design; it delays completion but never enters the measured record
	t := time.NewTimer(d)
	defer t.Stop()
	//lint:ignore purerun the timer race is the injected delay itself; the record is written from the model, not from this wait
	select {
	case <-ctx.Done():
		return ctx.Err()
	//lint:ignore purerun receiving the injected-latency timer tick is the delay mechanism, not measurement input
	case <-t.C:
		return nil
	}
}

// corruptWindowDiv sizes the corruption window as duration/corruptWindowDiv.
// The campaign meter samples at least 50 points per run (SampleInterval
// <= duration/50), so a window of duration/16 always contains at least
// one sample and every scheduled drop/outlier is observed.
const corruptWindowDiv = 16

// corruptRun overlays a corruption window on an inner power profile:
// inside [start, start+width) the meter reads NaN (drop) or an
// impossible negative value (outlier); outside the window the profile
// is bit-exact the inner one, which is what keeps retried measurements
// byte-identical to fault-free ones.
type corruptRun struct {
	inner        meter.Run
	start, width float64
	outlier      bool
}

// corruptProfile builds the faulted profile for a drop or outlier draw;
// windowFrac in [0, 1) positions the window along the run.
func corruptProfile(r meter.Run, class int, windowFrac float64) meter.Run {
	d := r.Duration()
	width := d / corruptWindowDiv
	return &corruptRun{
		inner:   r,
		start:   windowFrac * (d - width),
		width:   width,
		outlier: class == faultOutlier,
	}
}

// Duration implements meter.Run.
func (c *corruptRun) Duration() float64 { return c.inner.Duration() }

// PowerAt implements meter.Run.
func (c *corruptRun) PowerAt(t float64) float64 {
	p := c.inner.PowerAt(t)
	if t < c.start || t >= c.start+c.width {
		return p
	}
	if c.outlier {
		// Sign-flip glitch: a wall meter cannot read negative watts, so
		// the corrupt sample is unambiguously detectable downstream.
		return -1e3 * (math.Abs(p) + 1)
	}
	return math.NaN()
}
