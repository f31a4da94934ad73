package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each runs fn(ctx, i) for every i in [0, n) on a bounded pool — the
// same claiming, cancellation, and lowest-index error selection as Map —
// but instead of materializing a []T it streams each result to commit
// in strict index order as soon as its contiguous prefix is complete.
// Item 3's commit never waits on item 5's fn, only on items 0-2, so a
// slow straggler delays exactly the results behind it.
//
// commit is called sequentially (never concurrently with itself), with
// indexes 0, 1, 2, ... in order, at most once per index, and never
// again after it returns an error. A commit error cancels the pool and
// is the error returned — an fn error can only occur at a higher index
// (all lower indexes committed already), so this matches the
// lowest-index selection a serial loop interleaving fn and commit would
// exhibit. Results completed out of order are buffered until their
// predecessors land; the buffer holds at most workers-1 entries.
func Each[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error), commit func(i int, v T) error) error {
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
			v, err := fn(ctx, i)
			if err != nil {
				return err
			}
			if err := commit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next       atomic.Int64
		f          = failure{cancel: cancel}
		wg         sync.WaitGroup
		cmu        sync.Mutex // guards pending/nextIndex and serializes commit
		pending    = make(map[int]T, workers)
		nextIndex  int  // next index commit expects
		commitDead bool // a commit errored; never call it again
	)
	// deliver hands one completed result to the committer: it buffers v,
	// then drains the contiguous prefix. Whichever worker completes the
	// blocking index does the draining, so no dedicated committer
	// goroutine (or channel hop) sits on the hot path.
	deliver := func(i int, v T) {
		cmu.Lock()
		defer cmu.Unlock()
		if commitDead {
			return
		}
		pending[i] = v
		for {
			w, ok := pending[nextIndex]
			if !ok {
				return
			}
			delete(pending, nextIndex)
			idx := nextIndex
			nextIndex++
			if err := commit(idx, w); err != nil {
				commitDead = true
				f.record(idx, err)
				return
			}
		}
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
				ictx, ok := f.claim(parent, ctx, i)
				if !ok {
					return
				}
				v, err := fn(ictx, i)
				if err != nil {
					f.record(i, err)
					return
				}
				deliver(i, v)
			}
		}()
	}
	wg.Wait()
	return f.first()
}
