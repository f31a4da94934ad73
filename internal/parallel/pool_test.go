package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The TestMap tests pin For's rules for mapping fn over [0, n): every
// item exactly once, bounded concurrency, lowest-index error,
// cancellation.

func TestMapEmpty(t *testing.T) {
	err := For(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("fn called for n=0")
		return nil
	})
	if err != nil {
		t.Fatalf("For(n=0) = %v; want nil", err)
	}
}

// TestMapOrderPreserved: at any worker count every index in [0, n)
// runs, so results a caller stores by index come back complete and in
// index order.
func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		out := make([]int, 100)
		err := For(context.Background(), workers, len(out), func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNilContext(t *testing.T) {
	var calls atomic.Int64
	err := For(nil, 2, 3, func(context.Context, int) error { calls.Add(1); return nil })
	if err != nil || calls.Load() != 3 {
		t.Fatalf("nil ctx: %d calls, %v", calls.Load(), err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several items fail; the reported error must be the lowest-index
	// one — the error a serial loop would surface — regardless of
	// worker count.
	for _, workers := range []int{1, 4, 16} {
		err := For(context.Background(), workers, 50, func(_ context.Context, i int) error {
			if i >= 10 && i%2 == 0 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 10" {
			t.Fatalf("workers=%d: err = %v, want item 10", workers, err)
		}
	}
}

// TestForLowerItemsKeepContext: a failure cancels the items in flight
// above it but not those below it, which a serial loop would have
// finished first. Item 2 starts, item 1 then fails, and item 0, still
// in flight, must see its context intact once item 2's is cancelled, so
// the error returned is item 1's, not a cancellation.
func TestForLowerItemsKeepContext(t *testing.T) {
	started, cancelled := make(chan struct{}), make(chan struct{})
	boom := errors.New("item 1")
	err := For(context.Background(), 3, 3, func(ctx context.Context, i int) error {
		switch i {
		case 0:
			<-cancelled
			return ctx.Err()
		case 1:
			<-started
			return boom
		default:
			close(started)
			<-ctx.Done()
			close(cancelled)
			return ctx.Err()
		}
	})
	if err != boom {
		t.Fatalf("err = %v, want item 1's", err)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := For(ctx, 2, 1000, func(context.Context, int) error {
		if calls.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the pool (%d calls)", n)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := For(ctx, workers, 10, func(context.Context, int) error {
			t.Error("fn called under cancelled context")
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	err := For(context.Background(), workers, 60, func(context.Context, int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapEachItemExactlyOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	err := For(context.Background(), 8, 500, func(_ context.Context, i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 500 {
		t.Fatalf("%d distinct items, want 500", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("item %d ran %d times", i, n)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(4, 100); got != 4 {
		t.Errorf("DefaultWorkers(4, 100) = %d", got)
	}
	if got := DefaultWorkers(8, 3); got != 3 {
		t.Errorf("DefaultWorkers(8, 3) = %d, want capped at n", got)
	}
	if got := DefaultWorkers(0, 100); got < 1 {
		t.Errorf("DefaultWorkers(0, 100) = %d, want >= 1", got)
	}
	if got := DefaultWorkers(-5, 0); got != 1 {
		t.Errorf("DefaultWorkers(-5, 0) = %d, want 1", got)
	}
}
