// Package campaign runs full measurement campaigns the way the paper's
// experiments were actually conducted: every configuration of a workload
// is executed on a device (GPU, CPU, or heterogeneous ensemble — any
// backend behind the internal/device interface), sampled by the
// WattsUp-style meter with noise, and repeated until the paper's
// statistical criterion is met (95% confidence, 2.5% precision),
// producing a persistable record of *measured* — not model-true — values.
// The same engine runs exhaustive model-true sweeps (Spec.ModelTrue):
// one device run per configuration and no meter.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/meter"
	"energyprop/internal/stats"
)

// Spec configures a campaign.
type Spec struct {
	// Measure is the statistical criterion per data point; zero value
	// means the paper's default.
	Measure stats.MeasureSpec
	// NoiseFrac is the meter's per-sample noise (default 1%).
	NoiseFrac float64
	// SpikeProb injects per-sample transient disturbances (SSD/fan
	// events) with the given probability; pair with
	// Measure.RejectOutliersK for the robust pipeline.
	SpikeProb float64
	// Seed drives the meter noise deterministically. Each configuration's
	// meter seed is device.ConfigSeed(Seed, config) — a pure function of
	// the campaign seed and the configuration's canonical key, so a
	// point's measurement is independent of sweep order, worker count,
	// and backend.
	Seed int64
	// Workers bounds the number of configurations measured concurrently
	// (on a fleet, the number of shards a round runs at once). 0 (or
	// negative) selects runtime.GOMAXPROCS; 1 forces the serial
	// reference path. Any worker count produces identical records.
	Workers int
	// Cache, if non-nil, memoizes measured points across campaigns:
	// before dispatching a configuration to the worker pool, the engine
	// consults the cache under the point's canonical digest (device
	// identity, workload, config key, seed, and every statistical knob
	// above). Because a point is a pure function of that tuple, cached
	// and uncached campaigns are byte-identical; concurrent campaigns
	// asking for the same point collapse to one device run
	// (singleflight). Share one cache across campaigns only for devices
	// opened fresh from the device registry — see PointCache.
	Cache *PointCache
	// Progress, if non-nil, is called after each outcome reaches the
	// sink, with the number delivered so far: 1, 2, ..., total, in
	// order. Calls are serialized by the engine, so the callback needs
	// no locking of its own.
	Progress func(done, total int)
	// Retry bounds re-measurement of a failing point: a transient device
	// error or a corrupt meter sample burns one attempt and the point is
	// re-measured from a fresh meter (seeded, as always, by
	// device.ConfigSeed), so a recovered point is byte-identical to one
	// that succeeded first try. The zero value means one attempt (no
	// retries); retries are immediate — see fault.RetryPolicy.
	Retry fault.RetryPolicy
	// ContinueOnError degrades gracefully instead of aborting: a point
	// that exhausts its retry budget is recorded in Result.Failed with
	// its error, and the campaign carries on measuring the rest. Context
	// cancellation still aborts the whole sweep — a gone caller is not a
	// point failure.
	ContinueOnError bool
	// Executor selects the fan-out strategy. Nil means LocalExecutor
	// (the in-process pool bounded by Workers). internal/fleet provides
	// a sharded multi-node executor; whichever is chosen, the outcome
	// bytes are identical — a point is a pure function of (Seed, config),
	// so the executor shapes wall-clock and fault tolerance, never
	// results.
	Executor Executor
	// ModelTrue skips the meter and the statistical loop: each point is
	// one device run, reported with MeasuredEnergyJ = TrueEnergyJ,
	// HalfWidthJ = 0 and Runs = 0. It is the exhaustive model-true sweep
	// of gpusweep and the scheduler experiment, served by the same cache,
	// retry, degradation and executor machinery as a measured campaign.
	// The meter knobs (Measure, NoiseFrac, SpikeProb) and Seed are
	// ignored. Model-true points get cache keys of their own, so they
	// never alias measured ones.
	ModelTrue bool
}

// DefaultSpec returns the paper's methodology with 1% meter noise.
func DefaultSpec(seed int64) Spec {
	m := stats.DefaultMeasureSpec()
	m.CheckNormality = false // per-point χ² is run by the methodology experiment
	return Spec{Measure: m, NoiseFrac: 0.01, Seed: seed}
}

// PointReport is one configuration's measured outcome. Under
// Spec.ModelTrue nothing is metered: MeasuredEnergyJ equals TrueEnergyJ,
// and HalfWidthJ and Runs are zero.
type PointReport struct {
	Config device.Config
	// TrueSeconds and TrueEnergyJ are the model's ground truth.
	TrueSeconds, TrueEnergyJ float64
	// MeasuredEnergyJ is the converged sample mean of dynamic energy.
	MeasuredEnergyJ float64
	// HalfWidthJ is the confidence half-width at convergence.
	HalfWidthJ float64
	// Runs is the number of repetitions the criterion required.
	Runs int
	// Attempts is how many measurement attempts this point consumed
	// (1 = succeeded first try). Attempt accounting is provenance, not
	// measurement: the measured values of a point are identical whatever
	// Attempts says.
	Attempts int
}

// PointFailure is one configuration a degrading campaign gave up on.
type PointFailure struct {
	Config device.Config
	// Attempts is the retry budget consumed before giving up.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// Result is the campaign outcome.
type Result struct {
	// Device is the hardware catalog name; Kind its backend class.
	Device   string
	Kind     string
	Workload device.Workload
	Points   []PointReport
	// Failed lists the points that exhausted their retry budget when the
	// spec's ContinueOnError is set; analysis (fronts, trade-offs) runs
	// over the surviving Points.
	Failed []PointFailure
	// TotalRuns sums the repetitions across configurations — the
	// campaign's cost, which is what makes exhaustive global fronts
	// "expensive and may not be feasible in dynamic environments" (paper
	// Section V.B).
	TotalRuns int
}

// RunConfigs measures a configuration list (each valid for the workload;
// dev.Configs(w) for a full sweep) and materializes the result — Stream
// into a ResultSink. Points come back in the given order, but each
// point's measured value depends only on (spec.Seed, config), not on its
// position in the list or on spec.Workers. A cancelled context stops the
// worker pool between configurations and returns ctx.Err().
func RunConfigs(ctx context.Context, dev device.Device, w device.Workload, configs []device.Config, spec Spec) (*Result, error) {
	if dev == nil {
		return nil, errors.New("campaign: nil device")
	}
	rs := NewResultSink(dev, w)
	if err := Stream(ctx, dev, w, configs, spec, rs); err != nil {
		return nil, err
	}
	return rs.Result(), nil
}

// Stream is the streaming core every campaign entry point now rests
// on: it measures the explicit configuration list under the spec and
// delivers each outcome to sink in configuration order as completions
// allow, instead of materializing a result slice. The sink sees
// exactly len(configs) Accept calls (one per configuration, in order)
// followed by one Flush; on any error — executor, context, or sink —
// the campaign aborts, Flush is never called, and the error is
// returned (a sink error ahead of any other: a serial loop would have
// stopped at it first). Delivery order and bytes are
// executor-independent, so a streamed campaign's record is
// byte-identical to a materialized one.
func Stream(ctx context.Context, dev device.Device, w device.Workload, configs []device.Config, spec Spec, sink Sink) error {
	if dev == nil {
		return errors.New("campaign: nil device")
	}
	if sink == nil {
		return errNilSink
	}
	if spec.Measure.Confidence == 0 {
		spec.Measure = stats.DefaultMeasureSpec()
		spec.Measure.CheckNormality = false
	}
	if spec.NoiseFrac < 0 {
		return errors.New("campaign: negative noise")
	}
	if len(configs) == 0 {
		return errors.New("campaign: no configurations")
	}
	w = w.Normalized()
	job := &Job{
		Device:   dev,
		Workload: w,
		Configs:  configs,
		Spec:     spec,
		sink:     sink,
	}
	if spec.Cache != nil {
		job.keys = pointPrefix(dev, w, spec)
	}
	exec := spec.Executor
	if exec == nil {
		exec = LocalExecutor{}
	}
	err := exec.Execute(ctx, job)
	n, serr := job.delivery()
	if serr != nil {
		return serr
	}
	if err != nil {
		return err
	}
	if n != len(configs) {
		return fmt.Errorf("campaign: executor %T delivered %d outcomes for %d configurations", exec, n, len(configs))
	}
	return sink.Flush()
}

// retriedPoint measures one configuration, whose key and seed
// (device.KeySeed(spec.Seed, key)) the caller built once, under the
// spec's retry policy: each attempt runs the full cachedPoint path
// (device run, fresh meter, statistical loop), so a retry that succeeds
// reproduces the fault-free measurement bit-for-bit — the meter seed
// depends only on (spec.Seed, config), never on the attempt number.
// Retries run back to back (see fault.RetryPolicy).
func (j *Job) retriedPoint(ctx context.Context, dev device.Device, c device.Config, key string, seed int64) (PointReport, error) {
	var p PointReport
	attempts, err := j.Spec.Retry.Do(ctx, func(int) error {
		var aerr error
		p, aerr = j.cachedPoint(ctx, dev, c, key, seed)
		return aerr
	})
	if err != nil {
		return PointReport{Config: c, Attempts: attempts}, err
	}
	p.Attempts = attempts
	return p, nil
}

// cachedPoint measures one configuration through the spec's cache when
// one is attached, under the job's key prefix applied to the
// configuration key: a stored point is returned as-is (it is
// bit-identical to a recomputation by construction), and concurrent
// requests for the same point deduplicate to one measurement. Without
// a cache it is exactly measurePoint.
func (j *Job) cachedPoint(ctx context.Context, dev device.Device, c device.Config, key string, seed int64) (PointReport, error) {
	if j.Spec.Cache == nil {
		return measurePoint(ctx, dev, j.Workload, c, j.Spec, seed)
	}
	p, _, err := j.Spec.Cache.Do(j.keys.Digest(key), func() (PointReport, error) {
		return measurePoint(ctx, dev, j.Workload, c, j.Spec, seed)
	})
	return p, err
}

// measurePoint runs the paper's statistical loop for one configuration
// (or, under spec.ModelTrue, just the device run): the per-config unit
// of work the pool fans out. seed is the configuration's meter seed.
func measurePoint(ctx context.Context, dev device.Device, w device.Workload, c device.Config, spec Spec, seed int64) (PointReport, error) {
	out, err := dev.Run(ctx, w, c)
	if err != nil {
		return PointReport{}, err
	}
	p := PointReport{Config: c, TrueSeconds: out.TrueSeconds, TrueEnergyJ: out.TrueEnergyJ}
	if spec.ModelTrue {
		p.MeasuredEnergyJ = out.TrueEnergyJ
		return p, nil
	}
	meas, err := meterLoop(dev, out, spec, seed)
	if err != nil {
		return PointReport{}, fmt.Errorf("campaign: config %v: %w", c, err)
	}
	p.MeasuredEnergyJ, p.HalfWidthJ, p.Runs = meas.Mean, meas.HalfWidth, meas.Runs
	return p, nil
}

// meterPool recycles meters across points: a reset meter keeps its
// generator and sample scratch, so a point reseeds instead of allocating
// a fresh generator.
var meterPool = sync.Pool{New: func() any { return new(meter.Meter) }}

// meterLoop samples one model run's power profile with a fresh meter,
// seeded with the configuration's meter seed, until the spec's
// statistical criterion converges. The meter comes from meterPool,
// reset to exactly the state meter.NewMeter would build, and is held by
// this call alone, so concurrent points share no mutable state.
func meterLoop(dev device.Device, out *device.Outcome, spec Spec, seed int64) (*stats.Measurement, error) {
	m := meterPool.Get().(*meter.Meter)
	defer meterPool.Put(m)
	m.Reset(dev.Spec().IdlePowerW, seed)
	m.NoiseFrac = spec.NoiseFrac
	m.SpikeProb = spec.SpikeProb
	// Short kernels cannot be resolved at the WattsUp's 1 Hz: the real
	// methodology loops the kernel to stretch the run; equivalently we
	// sample at least 50 points per run.
	if d := out.Run.Duration(); d < 50 {
		m.SampleInterval = d / 50
	}
	return stats.Measure(spec.Measure, func() (float64, error) {
		rep, err := m.MeasureRun(out.Run)
		if err != nil {
			return 0, err
		}
		return rep.DynamicEnergyJ, nil
	})
}
