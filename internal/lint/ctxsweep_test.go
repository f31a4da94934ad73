package lint

import "testing"

func TestCtxSweepRequiresContextOnExportedFanouts(t *testing.T) {
	src := `package sweep

import (
	"context"

	"energyprop/internal/parallel"
)

// Exported fan-out with no way to cancel it: finding.
func SweepAll(n int) error {
	return parallel.For(context.Background(), 0, n, func(ctx context.Context, i int) error {
		return nil
	})
}
`
	checkFixture(t, []Rule{CtxSweep{}}, "fixture/sweep", src, []want{
		{line: 10, rule: "ctxsweep", substr: "SweepAll"},
	})
}

func TestCtxSweepRequiresForwardingNotBackground(t *testing.T) {
	src := `package sweep

import (
	"context"

	"energyprop/internal/parallel"
)

// Takes a ctx but severs it: finding on the argument.
func SweepSevered(ctx context.Context, n int) error {
	return parallel.For(context.Background(), 0, n, func(ctx context.Context, i int) error {
		return nil
	})
}
`
	checkFixture(t, []Rule{CtxSweep{}}, "fixture/sweep", src, []want{
		{line: 11, rule: "ctxsweep", substr: "context.Background()"},
	})
}

func TestCtxSweepNegativeCases(t *testing.T) {
	src := `package sweep

import (
	"context"

	"energyprop/internal/parallel"
)

// Forwarding the caller's ctx (possibly wrapped) is the contract.
func SweepGood(ctx context.Context, n int) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return parallel.For(ctx, 0, n, func(ctx context.Context, i int) error {
		return nil
	})
}

// Unexported helpers may own their context: the exported caller is the
// enforcement point.
func sweepInternal(n int) error {
	return parallel.For(context.Background(), 0, n, func(ctx context.Context, i int) error {
		return nil
	})
}

// Exported code that only uses non-fan-out parallel helpers needs no ctx.
func Workers(n int) int {
	return parallel.DefaultWorkers(0, n)
}
`
	checkFixture(t, []Rule{CtxSweep{}}, "fixture/sweep", src, nil)
}
