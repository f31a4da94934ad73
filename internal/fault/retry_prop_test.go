package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// retryCorpusSeed fixes the randomized-policy corpus: the property
// tests draw hundreds of (policy, error, success attempt) cases, but
// from this seed, so a failure names a reproducible counterexample.
const retryCorpusSeed = 1893

// randomPolicy draws one policy from the corpus generator, spanning
// the degenerate budgets (< 1 means one attempt) through eleven tries.
func randomPolicy(rng *rand.Rand) RetryPolicy {
	return RetryPolicy{MaxAttempts: rng.Intn(12)}
}

// TestDoContextErrorsNeverRetriedProperty is the randomized version of
// the context rule: an fn error that is (or wraps) a context
// cancellation or deadline expiry returns after exactly one attempt,
// whatever policy the corpus draws.
func TestDoContextErrorsNeverRetriedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(retryCorpusSeed + 3))
	ctxErrs := []error{
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("sweep aborted: %w", context.Canceled),
		fmt.Errorf("meter: %w", fmt.Errorf("deadline: %w", context.DeadlineExceeded)),
	}
	for trial := 0; trial < 100; trial++ {
		p := randomPolicy(rng)
		werr := ctxErrs[rng.Intn(len(ctxErrs))]
		calls := 0
		attempts, err := p.Do(context.Background(), func(int) error {
			calls++
			return werr
		})
		if calls != 1 || attempts != 1 {
			t.Fatalf("trial %d: context error retried (%d calls, %d attempts) under %+v", trial, calls, attempts, p)
		}
		if !errors.Is(err, werr) {
			t.Fatalf("trial %d: Do rewrote the error: %v", trial, err)
		}
	}
}

// TestDoBudgetExhaustion closes the property set: a persistently
// failing fn consumes exactly the attempt budget (minimum 1), and a
// success on attempt k stops there.
func TestDoBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(retryCorpusSeed + 4))
	boom := errors.New("persistent failure")
	for trial := 0; trial < 100; trial++ {
		p := randomPolicy(rng)
		want := p.MaxAttempts
		if want < 1 {
			want = 1
		}
		calls := 0
		attempts, err := p.Do(context.Background(), func(int) error {
			calls++
			return boom
		})
		if !errors.Is(err, boom) || calls != want || attempts != want {
			t.Fatalf("trial %d: budget %d consumed %d calls / %d attempts (err %v)", trial, want, calls, attempts, err)
		}
		if want < 2 {
			continue
		}
		succeedAt := 1 + rng.Intn(want)
		calls = 0
		attempts, err = p.Do(context.Background(), func(a int) error {
			calls++
			if a >= succeedAt {
				return nil
			}
			return boom
		})
		if err != nil || attempts != succeedAt || calls != succeedAt {
			t.Fatalf("trial %d: success at %d took %d attempts (err %v)", trial, succeedAt, attempts, err)
		}
	}
}
