// Package parallel is the bounded worker-pool substrate behind every
// fan-out hot path: GPU configuration sweeps (gpusim.Sweep, ClockSweep),
// measured campaigns (campaign.Stream), and the HTTP /sweep endpoint. It
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next item index to claim
		mu       sync.Mutex   // guards firstErr/firstIdx
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel() // stop the other workers claiming new items
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				r, err := fn(ctx, i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
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

// Tick records one completed item and reports it to the callback.
func (p *Progress) Tick() {
	if p == nil || p.fn == nil {
		return
	}
	p.mu.Lock()
	p.done++
	d := p.done
	p.mu.Unlock()
	p.fn(d, p.total)
}
