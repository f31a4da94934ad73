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
// point's measurement is a pure function of (Spec.Seed, config), and
// Commit alone puts the outcomes back into configuration order.
type Job struct {
	// Device is the campaign's reference device. Executors that host
	// their own device instances (fleet nodes) must host instances with
	// the same measurement identity (same registry name, kind, catalog
	// spec), or the records will differ from the local executor's.
	Device   device.Device
	Workload device.Workload
	Configs  []device.Config
	Spec     Spec

	sink Sink
	// keys digests a configuration key into its cache key; built once
	// per job from Device, Workload and Spec when Spec.Cache is set.
	keys memo.Prefix

	mu sync.Mutex
	// delivered counts the outcomes handed to the sink: it is also the
	// index of the next outcome due.
	delivered int
	// early holds outcomes committed ahead of an undelivered
	// predecessor, by index.
	early map[int]PointOutcome
	// err is the sink's error; once set, nothing more is delivered.
	err error
}

// Commit hands the i-th configuration's outcome to the job, which
// delivers outcomes to the campaign's sink in configuration order:
// outcome i goes straight to the sink when 0..i-1 have been delivered,
// and otherwise waits until they have. Executors may commit from any
// goroutine and in any order; committing an index twice, or one outside
// [0, len(Configs)), is an error. Deliveries are serialized by the job,
// so neither sinks nor the Spec.Progress callback need locking of their
// own. A sink error is sticky: it is returned by the Commit that
// delivered the rejected outcome and by every later one, and Stream
// reports it ahead of any executor error, as a serial loop would.
// Executors should stop dispatching once Commit fails.
func (j *Job) Commit(i int, o PointOutcome) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if i < 0 || i >= len(j.Configs) {
		return fmt.Errorf("campaign: outcome %d out of range for %d configurations", i, len(j.Configs))
	}
	if i != j.delivered {
		if _, dup := j.early[i]; dup || i < j.delivered {
			return fmt.Errorf("campaign: outcome %d committed twice", i)
		}
		if j.early == nil {
			j.early = make(map[int]PointOutcome)
		}
		j.early[i] = o
		return nil
	}
	if err := j.deliver(o); err != nil {
		return err
	}
	for len(j.early) > 0 {
		next, ok := j.early[j.delivered]
		if !ok {
			break
		}
		delete(j.early, j.delivered)
		if err := j.deliver(next); err != nil {
			return err
		}
	}
	return nil
}

// deliver passes the next outcome due to the sink and reports progress;
// the caller holds mu.
func (j *Job) deliver(o PointOutcome) error {
	if err := j.sink.Accept(o); err != nil {
		j.err = err
		return err
	}
	j.delivered++
	if j.Spec.Progress != nil {
		j.Spec.Progress(j.delivered, len(j.Configs))
	}
	return nil
}

// delivery returns how many outcomes reached the sink and the sink's
// error, if any.
func (j *Job) delivery() (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.delivered, j.err
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
// measure each of job.Configs (typically via job.MeasureOn) and commit
// each outcome exactly once, in any order, through job.Commit before
// returning nil; Stream verifies that every outcome was delivered.
// Executors shape wall-clock and fault tolerance, never results: Stream
// callers (the service, gpusweep, epstudy) get identical sink
// deliveries from any executor.
type Executor interface {
	Execute(ctx context.Context, job *Job) error
}

// LocalExecutor measures the campaign in-process on a bounded worker
// pool of Spec.Workers goroutines — the reference executor Stream uses
// when the spec names none. Workers == 1 is the serial path every
// determinism test compares against.
type LocalExecutor struct{}

// Execute implements Executor on the in-process pool: each worker
// measures a configuration and commits it, and the job delivers outcome
// i as soon as outcomes 0..i-1 have landed — no end-of-campaign
// materialization barrier.
func (LocalExecutor) Execute(ctx context.Context, job *Job) error {
	return parallel.For(ctx, job.Spec.Workers, len(job.Configs), func(ctx context.Context, i int) error {
		o, err := job.MeasureOn(ctx, job.Device, i)
		if err != nil {
			return err
		}
		return job.Commit(i, o)
	})
}
