package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"energyprop/internal/device"
	"energyprop/internal/parallel"
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

// funcExecutor adapts a function to Executor, for executors that
// commit in unusual orders.
type funcExecutor func(ctx context.Context, job *Job) error

func (f funcExecutor) Execute(ctx context.Context, job *Job) error { return f(ctx, job) }

// reverseExecutor measures and commits the configurations last to
// first, so every commit but the final one arrives ahead of a
// predecessor.
var reverseExecutor = funcExecutor(func(ctx context.Context, job *Job) error {
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
})

// scrambledExecutor commits from sixteen goroutines and holds every
// seventh configuration back, so completions land out of order.
var scrambledExecutor = funcExecutor(func(ctx context.Context, job *Job) error {
	return parallel.For(ctx, 16, len(job.Configs), func(ctx context.Context, i int) error {
		if i%7 == 0 {
			time.Sleep(time.Millisecond)
		}
		o, err := job.MeasureOn(ctx, job.Device, i)
		if err != nil {
			return err
		}
		return job.Commit(i, o)
	})
})

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

// TestReverseCommitsMatchSerialRecord: an executor committing last to
// first yields the serial local record byte for byte.
func TestReverseCommitsMatchSerialRecord(t *testing.T) {
	for _, name := range []string{"p100", "haswell"} {
		dev := openDev(t, name)
		w := smallWorkload()
		if name == "haswell" {
			w = device.Workload{N: 48, Products: 1}
		}
		serial := DefaultSpec(7)
		serial.Workers = 1
		reversed := DefaultSpec(7)
		reversed.Executor = reverseExecutor
		if got, want := streamRecordBytes(t, dev, w, reversed), streamRecordBytes(t, dev, w, serial); !bytes.Equal(got, want) {
			t.Errorf("%s: reverse-commit record differs from the serial one\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestCommitRejectsDuplicateAndOutOfRange: committing an index twice —
// whether it was already delivered or is still waiting on a
// predecessor — or outside the configuration list is an error.
func TestCommitRejectsDuplicateAndOutOfRange(t *testing.T) {
	dev := openDev(t, "haswell")
	w := device.Workload{N: 48, Products: 1}
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	n := len(configs)
	for _, tc := range []struct {
		name    string
		commits []int
		want    string
	}{
		{"delivered twice", []int{0, 0}, "outcome 0 committed twice"},
		{"early twice", []int{2, 2}, "outcome 2 committed twice"},
		{"negative", []int{-1}, "outcome -1 out of range"},
		{"past the end", []int{n}, fmt.Sprintf("outcome %d out of range", n)},
	} {
		spec := DefaultSpec(7)
		spec.Executor = funcExecutor(func(ctx context.Context, job *Job) error {
			for _, i := range tc.commits {
				if err := job.Commit(i, PointOutcome{}); err != nil {
					return err
				}
			}
			return nil
		})
		err := Stream(context.Background(), dev, w, configs, spec, Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSinkErrorPrecedesExecutorError: when the sink rejects an outcome,
// Stream reports the sink's error even if the executor then returns
// one of its own — the error a serial loop would have stopped at.
func TestSinkErrorPrecedesExecutorError(t *testing.T) {
	dev := openDev(t, "haswell")
	w := device.Workload{N: 48, Products: 1}
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec(7)
	spec.Executor = funcExecutor(func(ctx context.Context, job *Job) error {
		if err := job.Commit(1, PointOutcome{}); err != nil {
			t.Errorf("early commit: %v", err)
		}
		_ = job.Commit(0, PointOutcome{}) // the sink rejects it
		if err := job.Commit(2, PointOutcome{}); !errors.Is(err, errSinkBoom) {
			t.Errorf("commit after the sink error = %v, want the sink's error", err)
		}
		return errors.New("executor gave up")
	})
	s := &abortingSink{n: 3}
	if err := Stream(context.Background(), dev, w, configs, spec, s); !errors.Is(err, errSinkBoom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if s.n != 4 {
		t.Errorf("sink offered %d outcomes after its error, want none", s.n-4)
	}
}
