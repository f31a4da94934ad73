// Package parallel is the bounded worker-pool substrate behind every
// fan-out hot path: campaign.LocalExecutor — the reference executor of
// the one sweep engine the CLIs, the HTTP /sweep endpoint and the
// paper-figure experiments share — and the fleet coordinator's shard
// dispatch. It exists so that "run fn over N independent items on W
// goroutines, stop early on error or cancellation" is written — and
// tested under -race — exactly once.
//
// The pool orders nothing: fn(i) records its own result by index, and
// a campaign's outcomes are put back into configuration order by
// campaign.Job.Commit, whatever order the workers finish in. What the
// pool does guarantee is error selection: when several items fail, the
// error reported is the one with the lowest index — the same error a
// serial loop would have returned first — so error behaviour does not
// vary with worker count or scheduling.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers resolves a worker-count request: values < 1 mean "one
// worker per available CPU" (runtime.GOMAXPROCS), and any request is
// capped at n, the number of items, so tiny jobs never spawn idle
// goroutines.
func DefaultWorkers(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(ctx, i) for every i in [0, n) on a bounded pool of worker
// goroutines that claim items in increasing index order. workers < 1
// selects runtime.GOMAXPROCS(0); workers == 1 degenerates to a plain
// serial loop (no goroutines are spawned), which is the reference path
// the determinism tests compare against.
//
// The first error (by item index, not by wall-clock) is returned. It
// stops new claims and cancels the context of the items in flight above
// it, while the items below it run on to completion with their context
// intact: a serial loop would have finished them first, so they may
// still own the reported error. Likewise ctx cancellation stops the
// pool between items and returns ctx.Err(). The pool never interrupts
// fn mid-call, so fn must be quick enough per item for cancellation to
// be responsive.
func For(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = DefaultWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64 // next item index to claim
		f    = failure{workers: make([]worker, workers)}
		wg   sync.WaitGroup
	)
	for w := range f.workers {
		f.workers[w].ctx, f.workers[w].cancel = context.WithCancel(ctx)
		defer f.workers[w].cancel()
	}
	wg.Add(workers)
	for w := range f.workers {
		wk := &f.workers[w]
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !f.claim(ctx, wk, i) {
					return
				}
				if err := fn(wk.ctx, i); err != nil {
					f.record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return f.first()
}

// worker is one pool goroutine: the context its items run under, and
// the index of the item it last claimed.
type worker struct {
	ctx    context.Context
	cancel context.CancelFunc
	item   atomic.Int64
}

// failure selects the lowest-index error of a concurrent run and
// cancels the workers whose items lie above it.
type failure struct {
	failed  atomic.Bool // set once err is
	mu      sync.Mutex
	err     error
	idx     int
	workers []worker
}

// record notes item i's error. If it is the lowest-index error so far,
// the workers running an item above i are cancelled; claim stops every
// later claim above i.
func (f *failure) record(i int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil && i > f.idx {
		return
	}
	f.err, f.idx = err, i
	f.failed.Store(true)
	for w := range f.workers {
		if int(f.workers[w].item.Load()) > i {
			f.workers[w].cancel()
		}
	}
}

// claim reports whether wk should run item i: not when the caller's
// context is done (recorded as item i's error), nor when an item below
// i has already failed. The worker publishes i before it looks for a
// failure, so a concurrent record either sees i and cancels the worker,
// or is seen here.
func (f *failure) claim(parent context.Context, wk *worker, i int) bool {
	wk.item.Store(int64(i))
	if err := parent.Err(); err != nil {
		f.record(i, err)
		return false
	}
	if !f.failed.Load() {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return i < f.idx
}

// first returns the selected error (the lock orders the read after the
// workers' writes).
func (f *failure) first() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
