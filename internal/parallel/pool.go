// Package parallel is the bounded worker-pool substrate behind every
// fan-out hot path: campaign.Stream's local executor — the one sweep
// engine the CLIs, the HTTP /sweep endpoint and the paper-figure
// experiments share — and the fleet coordinator's shard dispatch. It
// exists so that "run f over N independent items on W goroutines, keep
// the results in item order, stop early on error or cancellation" is
// written — and tested under -race — exactly once.
//
// The pool makes two guarantees the callers' determinism contracts rest
// on:
//
//   - Order: results are returned indexed by item, never by completion
//     time, so a parallel sweep is byte-identical to a serial one as long
//     as f(i) itself does not depend on execution order.
//   - Error selection: when several items fail, the error reported is the
//     one with the lowest index — the same error a serial loop would have
//     returned first — so error behaviour does not vary with worker count
//     or scheduling.
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

// Map runs fn(ctx, i) for every i in [0, n) on a bounded pool of worker
// goroutines and returns the results in index order. workers < 1 selects
// runtime.GOMAXPROCS(0); workers == 1 degenerates to a plain serial loop
// (no goroutines are spawned), which is the reference path the
// determinism tests compare against.
//
// The first error (by item index, not by wall-clock) cancels the
// remaining work and is returned; likewise ctx cancellation stops the
// pool between items and returns ctx.Err(). Items already in flight run
// to completion — fn is never interrupted mid-call — so fn must be quick
// enough per item for cancellation to be responsive.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	workers = DefaultWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next atomic.Int64 // next item index to claim
		f    = failure{cancel: cancel}
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ictx, ok := f.claim(parent, ctx, i)
				if !ok {
					return
				}
				r, err := fn(ictx, i)
				if err != nil {
					f.record(i, err)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if err := f.first(); err != nil {
		return nil, err
	}
	return out, nil
}

// failure selects the lowest-index error of a concurrent run and cancels
// the run's context on the first one.
type failure struct {
	mu     sync.Mutex
	err    error
	idx    int
	cancel context.CancelFunc
}

// record notes item i's error and stops the other workers claiming new
// items.
func (f *failure) record(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.idx {
		f.err, f.idx = err, i
	}
	f.mu.Unlock()
	f.cancel()
}

// claim returns the context item i runs under, or false when the worker
// should stop: the caller's context is done (recorded as item i's
// error), or an item below i has already failed. A failure cancels the
// run's context, but items below the failing index still run, on the
// caller's context: a serial loop would have run them first, so they
// may still own the reported error.
func (f *failure) claim(parent, ctx context.Context, i int) (context.Context, bool) {
	if err := parent.Err(); err != nil {
		f.record(i, err)
		return nil, false
	}
	if ctx.Err() == nil {
		return ctx, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil && i > f.idx {
		return nil, false
	}
	return parent, true
}

// first returns the selected error (the lock orders the read after the
// workers' writes).
func (f *failure) first() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Progress serializes progress callbacks from concurrent workers: it
// counts completions and invokes the wrapped callback under a mutex, so
// callers can hand the pool a plain closure without their own locking.
type Progress struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

// NewProgress wraps fn (which may be nil) for total items.
func NewProgress(total int, fn func(done, total int)) *Progress {
	return &Progress{total: total, fn: fn}
}

// Tick records one completed item and reports it to the callback. The
// callback runs under the lock, so calls never overlap and arrive with
// strictly increasing counts.
func (p *Progress) Tick() {
	if p == nil || p.fn == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.fn(p.done, p.total)
}
