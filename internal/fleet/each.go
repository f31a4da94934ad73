package fleet

import (
	"context"
	"sync"

	"energyprop/internal/device"
)

// Each runs fn over n items through the coordinator's deterministic
// shard scheduler and streams each result to commit in strict item
// order: the fleet analog of parallel.Each. fn receives the hosting
// node's device and must be a pure function of the item (not of the
// node or of wall time) — the coordinator may run an item on any node,
// and a preempted shard's items run again elsewhere. fn is never
// invoked for a preempted dispatch (the loss is simulated before
// execution), so each item executes exactly once. Results that
// complete out of item order (shards run concurrently) are buffered
// until their predecessors land; whichever node-worker completes the
// blocking item drains the contiguous prefix.
//
// commit is called sequentially, with items 0, 1, 2, ... in order, at
// most once per item, and never again after it returns an error; a
// commit error aborts the run like any item error would.
func Each[T any](ctx context.Context, c *Coordinator, n int, fn func(ctx context.Context, dev device.Device, item int) (T, error), commit func(item int, v T) error) error {
	var (
		mu      sync.Mutex // guards pending/next/dead and serializes commit
		pending = make(map[int]T)
		next    int
		dead    bool
	)
	return c.run(ctx, n, func(ctx context.Context, dev device.Device, item int) error {
		v, err := fn(ctx, dev, item)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if dead {
			return nil // a commit already failed; its error is aborting the run
		}
		pending[item] = v
		for {
			w, ok := pending[next]
			if !ok {
				return nil
			}
			delete(pending, next)
			idx := next
			next++
			if err := commit(idx, w); err != nil {
				dead = true
				return err
			}
		}
	})
}
