package main

import (
	"context"
	"regexp"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every workload, timed and traced, for a fraction of a
// second and checks what the benchmark promises: exactly the metrics
// BENCHMARK.json names are emitted, under well-formed names, and every
// output check passes — golden digests, recomputed responses, the
// traced replay against the untraced one and the HTTP bodies, and the
// ladder's bit-for-bit re-measurement.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	cfg := config{
		dir:          "..",
		out:          t.TempDir(),
		seed:         7,
		seconds:      200 * time.Millisecond,
		setupReps:    1,
		ladderPoints: 32,
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	ctx := context.Background()
	for _, w := range workloads {
		for _, run := range []struct {
			kind  string
			fn    func(context.Context, config, *workload) (*result, error)
			names []string
		}{{"timed", runTimed, e2e}, {"traced", runTraced, layers}} {
			t.Run(w.name+"/"+run.kind, func(t *testing.T) {
				res, err := run.fn(ctx, cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%d of %d failed: %v", res.Failed, res.Attempted, res.Errors)
				}
				var got []string
				for m := range res.Metrics {
					got = append(got, m)
					if !name.MatchString(m) {
						t.Errorf("malformed metric name %q", m)
					}
				}
				want := slices.Clone(run.names)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("emitted %v, BENCHMARK.json names %v", got, run.names)
				}
			})
		}
	}
}
