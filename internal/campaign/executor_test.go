package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"energyprop/internal/device"
)

// recordingExecutor proves RunConfigs delegates fan-out: it measures
// every point through the job's own MeasureOn (so results stay real)
// and commits through the job's Commit (so sinks are fed), while
// recording that it, not the local pool, was driven.
type recordingExecutor struct {
	calls   int
	configs int
}

func (r *recordingExecutor) Execute(ctx context.Context, job *Job) error {
	r.calls++
	r.configs = len(job.Configs)
	for i := range job.Configs {
		o, err := job.MeasureOn(ctx, job.Device, i)
		if err != nil {
			return err
		}
		if err := job.Commit(i, o); err != nil {
			return err
		}
	}
	return nil
}

// truncatingExecutor violates the executor contract by dropping the
// last configuration's commit.
type truncatingExecutor struct{}

func (truncatingExecutor) Execute(ctx context.Context, job *Job) error {
	for i := 0; i < len(job.Configs)-1; i++ {
		o, err := job.MeasureOn(ctx, job.Device, i)
		if err != nil {
			return err
		}
		if err := job.Commit(i, o); err != nil {
			return err
		}
	}
	return nil
}

// reorderingExecutor violates the in-order commit contract.
type reorderingExecutor struct{}

func (reorderingExecutor) Execute(ctx context.Context, job *Job) error {
	for i := len(job.Configs) - 1; i >= 0; i-- {
		o, err := job.MeasureOn(ctx, job.Device, i)
		if err != nil {
			return err
		}
		if err := job.Commit(i, o); err != nil {
			return err
		}
	}
	return nil
}

func TestCustomExecutorIsUsed(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	exec := &recordingExecutor{}
	spec := DefaultSpec(31)
	spec.Executor = exec
	res, err := runAll(dev, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if exec.calls != 1 {
		t.Errorf("custom executor driven %d times", exec.calls)
	}
	if len(res.Points) != exec.configs {
		t.Errorf("%d points from %d configs", len(res.Points), exec.configs)
	}

	// A custom executor routing through Job.MeasureOn must reproduce the
	// default (local pool) record byte-for-byte.
	local := DefaultSpec(31)
	local.Workers = 1
	want, err := runAll(openDev(t, "p100"), w, local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalRecord(t, referenceRecord(t, res)), marshalRecord(t, referenceRecord(t, want))) {
		t.Error("custom-executor record differs from the local pool's")
	}
}

func TestNilExecutorDefaultsToLocalPool(t *testing.T) {
	dev := openDev(t, "haswell")
	w := device.Workload{N: 48, Products: 1}
	spec := DefaultSpec(7)
	spec.Workers = 4
	res, err := runAll(dev, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("local pool produced no points")
	}
}

func TestExecutorOutcomeCountMismatch(t *testing.T) {
	dev := openDev(t, "haswell")
	spec := DefaultSpec(7)
	spec.Executor = truncatingExecutor{}
	_, err := runAll(dev, device.Workload{N: 48, Products: 1}, spec)
	if err == nil || !strings.Contains(err.Error(), "outcomes") {
		t.Fatalf("err = %v, want an outcome-count mismatch", err)
	}
}

func TestCommitRejectsOutOfOrder(t *testing.T) {
	dev := openDev(t, "haswell")
	spec := DefaultSpec(7)
	spec.Executor = reorderingExecutor{}
	_, err := runAll(dev, device.Workload{N: 48, Products: 1}, spec)
	if err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("err = %v, want an out-of-order commit rejection", err)
	}
}
