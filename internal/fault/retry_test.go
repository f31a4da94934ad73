package fault

import (
	"context"
	"errors"
	"testing"
)

var errBoom = errors.New("boom")

// TestDoSucceedsFirstTry: a passing fn consumes exactly one attempt.
func TestDoSucceedsFirstTry(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5}
	attempts, err := p.Do(context.Background(), func(int) error { return nil })
	if err != nil || attempts != 1 {
		t.Errorf("got (%d, %v), want (1, nil)", attempts, err)
	}
}

// TestDoRetriesUntilSuccess: fn fails twice, then passes; Do reports
// three attempts and no error, and fn sees 1-based attempt numbers.
func TestDoRetriesUntilSuccess(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5}
	var seen []int
	attempts, err := p.Do(context.Background(), func(a int) error {
		seen = append(seen, a)
		if a < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Errorf("got (%d, %v), want (3, nil)", attempts, err)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Errorf("fn saw attempts %v, want [1 2 3]", seen)
	}
}

// TestDoExhaustsBudget: an always-failing fn burns the whole budget and
// returns the final error.
func TestDoExhaustsBudget(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4}
	attempts, err := p.Do(context.Background(), func(int) error { return errBoom })
	if !errors.Is(err, errBoom) || attempts != 4 {
		t.Errorf("got (%d, %v), want (4, errBoom)", attempts, err)
	}
}

// TestDoDefaultsToOneAttempt: zero-value policies do not retry.
func TestDoDefaultsToOneAttempt(t *testing.T) {
	var p RetryPolicy
	attempts, err := p.Do(context.Background(), func(int) error { return errBoom })
	if !errors.Is(err, errBoom) || attempts != 1 {
		t.Errorf("got (%d, %v), want (1, errBoom)", attempts, err)
	}
}

// TestDoNeverRetriesContextErrors: a gone caller must not keep burning
// device time, even with budget left.
func TestDoNeverRetriesContextErrors(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10}
	for _, cerr := range []error{context.Canceled, context.DeadlineExceeded} {
		calls := 0
		attempts, err := p.Do(context.Background(), func(int) error {
			calls++
			return cerr
		})
		if !errors.Is(err, cerr) || attempts != 1 || calls != 1 {
			t.Errorf("%v: got (%d attempts, %d calls, %v)", cerr, attempts, calls, err)
		}
	}
}

// TestDoStopsOnCancelledContext: Do checks the context between
// attempts.
func TestDoStopsOnCancelledContext(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 100}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	_, err := p.Do(ctx, func(int) error {
		calls++
		cancel()
		return errBoom
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times after cancellation, want 1", calls)
	}
}

// TestIsContextErr covers both context errors, wrapping, and negatives.
func TestIsContextErr(t *testing.T) {
	if !IsContextErr(context.Canceled) || !IsContextErr(context.DeadlineExceeded) {
		t.Error("bare context errors not recognized")
	}
	if !IsContextErr(errors.Join(errBoom, context.Canceled)) {
		t.Error("wrapped cancellation not recognized")
	}
	if IsContextErr(errBoom) || IsContextErr(nil) {
		t.Error("non-context errors misclassified")
	}
}
