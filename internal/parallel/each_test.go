package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/parallel"
)

// The TestEach tests pin the in-order commit contract from the pool's
// side. The pool orders nothing; a fan-out streams in configuration
// order by running For over "measure, then campaign.Job.Commit", the
// composition every executor uses. These tests drive that composition
// through campaign.Stream and check what the sink sees.

// sweep returns a device and its configurations for a small workload,
// with enough points that workers routinely finish out of order.
func sweep(t *testing.T) (device.Device, device.Workload, []device.Config) {
	t.Helper()
	dev, err := device.Open("p100")
	if err != nil {
		t.Fatal(err)
	}
	w := device.Workload{N: 4096, Products: 2}
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) < 20 {
		t.Fatalf("only %d configurations; the tests need at least 20", len(configs))
	}
	return dev, w, configs
}

// forExecutor fans a campaign out through For on workers goroutines.
// Each item runs pre (when set) before measuring, and commits its
// outcome through the job; every seventh item sleeps first so that
// completions land out of order.
type forExecutor struct {
	workers int
	pre     func(i int) error
}

func (e forExecutor) Execute(ctx context.Context, job *campaign.Job) error {
	return parallel.For(ctx, e.workers, len(job.Configs), func(ctx context.Context, i int) error {
		if i%7 == 0 {
			time.Sleep(time.Millisecond)
		}
		if e.pre != nil {
			if err := e.pre(i); err != nil {
				return err
			}
		}
		o, err := job.MeasureOn(ctx, job.Device, i)
		if err != nil {
			return err
		}
		return job.Commit(i, o)
	})
}

// spec is a model-true campaign (one device run per point) fanned out
// by exec.
func spec(exec campaign.Executor) campaign.Spec {
	s := campaign.DefaultSpec(5)
	s.ModelTrue = true
	s.Executor = exec
	return s
}

// TestEachCommitsInOrder checks the core contract at several worker
// counts: the sink sees outcomes 0..n-1 in strict order, exactly once
// each, even when completion order is scrambled.
func TestEachCommitsInOrder(t *testing.T) {
	dev, w, configs := sweep(t)
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []string
			sink := campaign.FuncSink{AcceptFunc: func(o campaign.PointOutcome) error {
				got = append(got, o.Key)
				return nil
			}}
			if err := campaign.Stream(context.Background(), dev, w, configs, spec(forExecutor{workers: workers}), sink); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(configs) {
				t.Fatalf("sink saw %d of %d outcomes", len(got), len(configs))
			}
			for i, key := range got {
				if key != configs[i].Key() {
					t.Fatalf("outcome %d is %s, want %s", i, key, configs[i].Key())
				}
			}
		})
	}
}

// TestEachMatchesMap checks that streaming through Job.Commit yields
// the same outcomes as storing each item's outcome by index.
func TestEachMatchesMap(t *testing.T) {
	dev, w, configs := sweep(t)
	byIndex := make([]campaign.PointOutcome, len(configs))
	exec := funcExecutor(func(ctx context.Context, job *campaign.Job) error {
		return parallel.For(ctx, 8, len(job.Configs), func(ctx context.Context, i int) error {
			o, err := job.MeasureOn(ctx, job.Device, i)
			if err != nil {
				return err
			}
			byIndex[i] = o
			return job.Commit(i, o)
		})
	})
	var got []campaign.PointOutcome
	sink := campaign.FuncSink{AcceptFunc: func(o campaign.PointOutcome) error {
		got = append(got, o)
		return nil
	}}
	if err := campaign.Stream(context.Background(), dev, w, configs, spec(exec), sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(byIndex) {
		t.Fatalf("len %d vs %d", len(got), len(byIndex))
	}
	for i := range byIndex {
		if got[i].Key != byIndex[i].Key || got[i].Report != byIndex[i].Report {
			t.Fatalf("index %d: %+v vs %+v", i, got[i], byIndex[i])
		}
	}
}

// funcExecutor adapts a function to campaign.Executor.
type funcExecutor func(ctx context.Context, job *campaign.Job) error

func (f funcExecutor) Execute(ctx context.Context, job *campaign.Job) error { return f(ctx, job) }

// TestEachFnErrorLowestIndex checks For's error selection through the
// job: items 10 and up fail, the campaign reports item 10's error, and
// no outcome at or past the failure reaches the sink.
func TestEachFnErrorLowestIndex(t *testing.T) {
	dev, w, configs := sweep(t)
	for _, workers := range []int{1, 4} {
		exec := forExecutor{workers: workers, pre: func(i int) error {
			if i >= 10 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		}}
		delivered := 0
		sink := campaign.FuncSink{AcceptFunc: func(campaign.PointOutcome) error {
			delivered++
			return nil
		}}
		err := campaign.Stream(context.Background(), dev, w, configs, spec(exec), sink)
		if err == nil || err.Error() != "item 10 failed" {
			t.Fatalf("workers=%d: err = %v, want item 10's", workers, err)
		}
		if delivered > 10 {
			t.Fatalf("workers=%d: sink saw %d outcomes past failing index 10", workers, delivered)
		}
	}
}

// TestEachCommitError checks that a failing sink stops all further
// deliveries and is the error the campaign returns.
func TestEachCommitError(t *testing.T) {
	dev, w, configs := sweep(t)
	boom := errors.New("sink full")
	for _, workers := range []int{1, 8} {
		calls := 0
		sink := campaign.FuncSink{AcceptFunc: func(campaign.PointOutcome) error {
			calls++
			if calls == 6 {
				return boom
			}
			return nil
		}}
		err := campaign.Stream(context.Background(), dev, w, configs, spec(forExecutor{workers: workers}), sink)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want sink error", workers, err)
		}
		if calls != 6 {
			t.Fatalf("workers=%d: sink called %d times, want 6 (none after the error)", workers, calls)
		}
	}
}

// TestEachContextCancel checks cancellation stops the pool between
// items and is the campaign's error.
func TestEachContextCancel(t *testing.T) {
	dev, w, configs := sweep(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int32
	exec := forExecutor{workers: 4, pre: func(int) error {
		if n.Add(1) == 10 {
			cancel()
		}
		return nil
	}}
	err := campaign.Stream(ctx, dev, w, configs, spec(exec), campaign.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEachZeroItems checks that an empty configuration list is refused
// before any item runs: neither the executor nor the sink is called.
func TestEachZeroItems(t *testing.T) {
	dev, w, _ := sweep(t)
	ran, accepted := false, false
	exec := funcExecutor(func(context.Context, *campaign.Job) error {
		ran = true
		return nil
	})
	sink := campaign.FuncSink{AcceptFunc: func(campaign.PointOutcome) error {
		accepted = true
		return nil
	}}
	if err := campaign.Stream(context.Background(), dev, w, nil, spec(exec), sink); err == nil {
		t.Fatal("Stream accepted zero configurations")
	}
	if ran || accepted {
		t.Fatalf("zero items: executor ran %v, sink called %v", ran, accepted)
	}
}

// TestEachCommitNotConcurrent verifies the sink never runs
// concurrently with itself under 16 workers (the race detector would
// also catch unsynchronized access, but this asserts the mutual
// exclusion explicitly).
func TestEachCommitNotConcurrent(t *testing.T) {
	dev, w, configs := sweep(t)
	var inAccept atomic.Int32
	sink := campaign.FuncSink{AcceptFunc: func(campaign.PointOutcome) error {
		if n := inAccept.Add(1); n != 1 {
			t.Errorf("sink reentered: %d", n)
		}
		inAccept.Add(-1)
		return nil
	}}
	if err := campaign.Stream(context.Background(), dev, w, configs, spec(forExecutor{workers: 16}), sink); err != nil {
		t.Fatal(err)
	}
}

// TestProgressNilSafe checks a campaign without a progress callback
// runs to completion at any worker count.
func TestProgressNilSafe(t *testing.T) {
	dev, w, configs := sweep(t)
	for _, workers := range []int{1, 4} {
		s := spec(forExecutor{workers: workers})
		s.Progress = nil
		if err := campaign.Stream(context.Background(), dev, w, configs, s, campaign.Discard); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestProgressSerializedAndComplete checks the progress callback, which
// takes no lock of its own, sees the counts 1..n in strict order under
// 16 workers.
func TestProgressSerializedAndComplete(t *testing.T) {
	dev, w, configs := sweep(t)
	var dones []int
	s := spec(forExecutor{workers: 16})
	s.Progress = func(done, total int) {
		if total != len(configs) {
			t.Errorf("total = %d, want %d", total, len(configs))
		}
		dones = append(dones, done)
	}
	if err := campaign.Stream(context.Background(), dev, w, configs, s, campaign.Discard); err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(configs) {
		t.Fatalf("%d progress calls, want %d", len(dones), len(configs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress counts %v, want 1..%d in order", dones, len(configs))
		}
	}
}
