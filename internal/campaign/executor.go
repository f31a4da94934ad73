package campaign

import (
	"context"
	"fmt"
	"sync"

	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/memo"
	"energyprop/internal/parallel"
)

// PointOutcome is one configuration's terminal outcome as an Executor
// reports it: either a measured report or a recorded failure (when the
// spec degrades gracefully). Exactly one of the two is set.
//
// Key and Label are the configuration's Key() and String(), built once
// by Job.MeasureOn so the sinks need not rebuild them. They live here,
// not in the memoized PointReport, so the cache stores no strings.
type PointOutcome struct {
	Report  PointReport
	Failure *PointFailure
	Key     string
	Label   string
}

// Job is one campaign execution request handed to an Executor: the
// opened device, the normalized workload, the explicit configuration
// list, and the spec. Executors measure every configuration and commit
// each outcome through Commit; how the work is fanned out (a local
// worker pool, a sharded fleet of simulated nodes, ...) is the
// executor's business and must never change the outcome bytes — a
// point's measurement is a pure function of (Spec.Seed, config).
type Job struct {
	// Device is the campaign's reference device. Executors that host
	// their own device instances (fleet nodes) must host instances with
	// the same measurement identity (same registry name, kind, catalog
	// spec), or the records will differ from the local executor's.
	Device   device.Device
	Workload device.Workload
	Configs  []device.Config
	Spec     Spec

	progress *parallel.Progress
	sink     Sink
	// keys digests a configuration key into its cache key; built once
	// per job from Device, Workload and Spec when Spec.Cache is set.
	keys memo.Prefix

	mu        sync.Mutex
	committed int
}

// Commit delivers the i-th configuration's outcome to the campaign's
// sink and progress callback. Executors must commit outcome i for every
// i in [0, len(Configs)) exactly once, in increasing order — the
// in-order contract is what makes a streamed campaign byte-identical to
// the old materialized path on any executor, and Commit enforces it:
// an out-of-order or duplicate commit is an error. Calls are
// serialized by the job, so sinks need no locking of their own. A sink
// error aborts the campaign; executors must stop dispatching and
// return it.
func (j *Job) Commit(i int, o PointOutcome) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i != j.committed {
		return fmt.Errorf("campaign: executor committed outcome %d out of order (want %d)", i, j.committed)
	}
	j.committed++
	if j.sink != nil {
		if err := j.sink.Accept(o); err != nil {
			return err
		}
	}
	j.progress.Tick()
	return nil
}

// Committed returns how many outcomes have been committed so far.
func (j *Job) Committed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.committed
}

// MeasureOn measures the job's i-th configuration on dev — the
// per-point unit of work every executor fans out. It applies the spec's
// cache and retry policy exactly like the local pool, so a point
// measured on any executor's device instance is byte-identical to the
// serial reference path. The returned error is non-nil only when the
// campaign must abort: a context error, or any failure when the spec
// does not degrade gracefully. A tolerated failure comes back as a
// PointOutcome recording the failure.
//
// The configuration's key is built once here and serves as the cache
// key's varying field, the seed's input and the outcome's Key; the
// cache key's other fields come from the job's device, so dev must
// share its identity.
func (j *Job) MeasureOn(ctx context.Context, dev device.Device, i int) (PointOutcome, error) {
	c := j.Configs[i]
	key := c.Key()
	p, err := j.retriedPoint(ctx, dev, c, key, device.KeySeed(j.Spec.Seed, key))
	if err != nil {
		if !j.Spec.ContinueOnError || fault.IsContextErr(err) {
			return PointOutcome{}, err
		}
		return PointOutcome{Failure: &PointFailure{Config: c, Attempts: p.Attempts, Err: err}, Key: key, Label: c.String()}, nil
	}
	return PointOutcome{Report: p, Key: key, Label: c.String()}, nil
}

// Executor is the strategy that fans a campaign's configurations out.
// The local worker pool is the reference implementation; internal/fleet
// provides a sharded multi-node dispatcher. Every implementation must
// measure each of job.Configs (typically via job.MeasureOn) and deliver
// every outcome through job.Commit — in index order, exactly once —
// before returning nil. Stream verifies the count. Executors shape
// wall-clock and fault tolerance, never results: Stream callers (the
// service, gpusweep, epstudy) get identical sink deliveries from any
// executor.
type Executor interface {
	Execute(ctx context.Context, job *Job) error
}

// LocalExecutor measures the campaign in-process on a bounded worker
// pool of Spec.Workers goroutines — the reference executor Stream uses
// when the spec names none. Workers == 1 is the serial path every
// determinism test compares against.
type LocalExecutor struct{}

// Execute implements Executor on the in-process pool: parallel.Each
// fans the configurations out and re-serializes completions into
// in-order commits, so outcome i reaches the sink as soon as outcomes
// 0..i-1 have — no end-of-campaign materialization barrier.
func (LocalExecutor) Execute(ctx context.Context, job *Job) error {
	return parallel.Each(ctx, job.Spec.Workers, len(job.Configs),
		func(ctx context.Context, i int) (PointOutcome, error) {
			return job.MeasureOn(ctx, job.Device, i)
		},
		job.Commit)
}
