package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/fault"
)

// registryFactory is the plain test factory: fresh p100 per node.
func registryFactory() DeviceFactory {
	return func(string) (device.Device, error) { return device.Open("p100") }
}

// planCoord opens a fleet Plan for the named device and returns its
// coordinator.
func planCoord(name string, faults fault.Plan, opts Options) (*Coordinator, error) {
	st, err := Plan{Device: name, Faults: faults, Fleet: &opts}.Open()
	if err != nil {
		return nil, err
	}
	return st.Coord, nil
}

// newCoord builds a coordinator or fails the test.
func newCoord(t testing.TB, opts Options, factory DeviceFactory) *Coordinator {
	t.Helper()
	c, err := New(opts, factory)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// each runs fn over n items through the coordinator's scheduler, at
// most workers shards at a time, and returns the results by item.
func each(ctx context.Context, c *Coordinator, workers, n int, fn func(ctx context.Context, dev device.Device, item int) (int, error)) ([]int, error) {
	out := make([]int, n)
	err := c.run(ctx, workers, n, func(ctx context.Context, dev device.Device, item int) error {
		v, err := fn(ctx, dev, item)
		out[item] = v
		return err
	})
	return out, err
}

func TestClockAdvances(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	if c.Advance() != 1 || c.Advance() != 2 || c.Now() != 2 {
		t.Errorf("clock did not count ticks: now=%d", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("reset clock at %d", c.Now())
	}
}

func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"zero nodes", Options{Nodes: 0}},
		{"negative shard size", Options{Nodes: 2, ShardSize: -1}},
		{"bad chaos probability", Options{Nodes: 2, Chaos: Chaos{Preempt: 1.5}}},
		{"nan chaos probability", Options{Nodes: 2, Chaos: Chaos{Flaky: math.NaN()}}},
		{"negative slow ticks", Options{Nodes: 2, Chaos: Chaos{SlowTicks: -2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.opts, registryFactory()); err == nil {
				t.Errorf("New accepted %+v", tc.opts)
			}
		})
	}
	if _, err := New(Options{Nodes: 2}, nil); err == nil {
		t.Error("New accepted a nil factory")
	}
}

func TestParseChaosRoundTrip(t *testing.T) {
	for _, s := range []string{
		"seed=9,preempt=0.2,flaky=0.1,slow=0.25,slowticks=4",
		"seed=-3,flaky=0.5",
		"seed=0",
	} {
		c, err := ParseChaos(s)
		if err != nil {
			t.Fatalf("ParseChaos(%q): %v", s, err)
		}
		back, err := ParseChaos(c.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", c.String(), err)
		}
		if back != c {
			t.Errorf("round trip of %q: %+v != %+v", s, back, c)
		}
	}
	if c, err := ParseChaos("  "); err != nil || c.Enabled() {
		t.Errorf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{
		"preempt", "preempt=2", "bogus=1", "flaky=x", "slowticks=-1", "seed=1,preempt=-0.5",
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) succeeded", bad)
		}
	}
}

func TestDrawsArePureFunctions(t *testing.T) {
	c := Chaos{Seed: 7, Preempt: 0.5, Flaky: 0.5, Slow: 0.5}
	for i := 0; i < 50; i++ {
		if c.preempted(i, 1) != c.preempted(i, 1) {
			t.Fatal("preempted is not deterministic")
		}
		if c.healthOK("node1", Tick(i)) != c.healthOK("node1", Tick(i)) {
			t.Fatal("healthOK is not deterministic")
		}
		if c.slowExtra("node1", i, 1) != c.slowExtra("node1", i, 1) {
			t.Fatal("slowExtra is not deterministic")
		}
	}
	// Distinct decision classes must not alias: the same (identity,
	// counter) pair feeds different draw kinds.
	same := 0
	for i := 0; i < 64; i++ {
		if device.AttemptSeed(1, "health\x00node0", int64(i)) == device.AttemptSeed(1, "preempt\x00node0", int64(i)) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 health and preempt draw seeds collide", same)
	}
}

func TestShardItems(t *testing.T) {
	got := shardItems(10, 4, 2)
	if len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Errorf("ragged last shard = %v", got)
	}
	covered := map[int]bool{}
	for s := 0; s < 3; s++ {
		for _, i := range shardItems(10, 4, s) {
			if covered[i] {
				t.Fatalf("item %d in two shards", i)
			}
			covered[i] = true
		}
	}
	if len(covered) != 10 {
		t.Errorf("shards cover %d/10 items", len(covered))
	}
}

func TestMapCalmFleet(t *testing.T) {
	c := newCoord(t, Options{Nodes: 3}, registryFactory())
	out, err := each(context.Background(), c, 0, 7, func(_ context.Context, dev device.Device, i int) (int, error) {
		if dev == nil || dev.Name() != "p100" {
			t.Error("fn did not receive the hosted device")
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("%d results for 7 items", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
	s := c.Stats()
	if s.Shards != 3 || s.Completions != 3 || s.Preemptions != 0 || s.Cordons != 0 {
		t.Errorf("calm fleet stats = %+v", s)
	}
	if n := len(c.Nodes()); n != 3 {
		t.Errorf("%d node statuses", n)
	}
}

func TestMapZeroItems(t *testing.T) {
	c := newCoord(t, Options{Nodes: 2}, registryFactory())
	out, err := each(context.Background(), c, 0, 0, func(_ context.Context, _ device.Device, i int) (int, error) {
		t.Error("fn called for an empty item set")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Errorf("empty run: %v, %v", out, err)
	}
}

// TestEachItemExecutesExactlyOnce is the no-double-measurement
// property: however many preemptions and cordons the schedule throws,
// fn runs exactly once per item — a preempted dispatch is discarded
// before execution, never after.
func TestEachItemExecutesExactlyOnce(t *testing.T) {
	const n = 23
	opts := Options{
		Nodes:     3,
		ShardSize: 2,
		Chaos:     Chaos{Seed: 11, Preempt: 0.4, Flaky: 0.3, Slow: 0.4},
	}
	c := newCoord(t, opts, registryFactory())
	var mu sync.Mutex
	runs := make([]int, n)
	if _, err := each(context.Background(), c, 0, n, func(_ context.Context, _ device.Device, i int) (int, error) {
		mu.Lock()
		runs[i]++
		mu.Unlock()
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if r != 1 {
			t.Errorf("item %d executed %d times", i, r)
		}
	}
	s := c.Stats()
	if s.Preemptions == 0 {
		t.Error("chaos schedule injected no preemptions — the test is vacuous")
	}
	if s.Preemptions != s.Requeues {
		t.Errorf("preemptions=%d != requeues=%d", s.Preemptions, s.Requeues)
	}
	if s.Dispatches != s.Completions+s.Preemptions {
		t.Errorf("dispatches=%d, completions=%d + preemptions=%d don't balance",
			s.Dispatches, s.Completions, s.Preemptions)
	}
}

// TestCordonAndRemediate drives a flaky fleet and checks the full node
// lifecycle: health failures accumulate into cordons, cordoned nodes
// return to service after their window, and the campaign still
// completes.
func TestCordonAndRemediate(t *testing.T) {
	opts := Options{
		Nodes:       2,
		ShardSize:   1,
		CordonAfter: 1,
		CordonTicks: 2,
		Chaos:       Chaos{Seed: 3, Flaky: 0.45},
	}
	c := newCoord(t, opts, registryFactory())
	if _, err := each(context.Background(), c, 0, 12, func(_ context.Context, _ device.Device, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.HealthFailures == 0 || s.Cordons == 0 || s.Remediations == 0 {
		t.Fatalf("lifecycle not exercised: %+v", s)
	}
	var cordons, remediations int
	for _, e := range c.Events() {
		switch e.Kind {
		case EventCordon:
			cordons++
		case EventRemediate:
			remediations++
		}
	}
	if cordons != s.Cordons || remediations != s.Remediations {
		t.Errorf("event log (%d cordons, %d remediations) disagrees with stats %+v", cordons, remediations, s)
	}
	if s.Completions != 12 {
		t.Errorf("completed %d/12 shards", s.Completions)
	}
}

// TestStrikeCordon checks the misbehaving-node path: enough preemptions
// charged to one node cordon it even when its health checks pass.
func TestStrikeCordon(t *testing.T) {
	opts := Options{
		Nodes:      1,
		ShardSize:  1,
		MaxStrikes: 2,
		Chaos:      Chaos{Seed: 5, Preempt: 0.5},
	}
	c := newCoord(t, opts, registryFactory())
	if _, err := each(context.Background(), c, 0, 10, func(_ context.Context, _ device.Device, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Preemptions < 2 {
		t.Skipf("schedule drew only %d preemptions; pick a hotter seed", s.Preemptions)
	}
	if s.Cordons == 0 {
		t.Errorf("no strike cordon after %d preemptions on one node: %+v", s.Preemptions, s)
	}
	found := false
	for _, e := range c.Events() {
		if e.Kind == EventCordon && strings.Contains(e.Detail, "strikes") {
			found = true
		}
	}
	if !found {
		t.Error("no cordon event cites preempt strikes")
	}
}

// TestStallAborts pins the fleet's failure mode: with every health
// check failing forever, all nodes cordon, remediation never passes,
// and the run must abort with a stall error instead of spinning.
func TestStallAborts(t *testing.T) {
	opts := Options{
		Nodes:       2,
		CordonAfter: 1,
		StallRounds: 5,
		Chaos:       Chaos{Seed: 1, Flaky: 1},
	}
	c := newCoord(t, opts, registryFactory())
	_, err := each(context.Background(), c, 0, 4, func(_ context.Context, _ device.Device, i int) (int, error) {
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want a stall abort", err)
	}
}

func TestMapPropagatesFnError(t *testing.T) {
	c := newCoord(t, Options{Nodes: 2}, registryFactory())
	boom := errors.New("boom")
	if _, err := each(context.Background(), c, 0, 6, func(_ context.Context, _ device.Device, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMapHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := newCoord(t, Options{Nodes: 2}, registryFactory())
	if _, err := each(ctx, c, 0, 4, func(_ context.Context, _ device.Device, i int) (int, error) {
		return i, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFactoryErrorSurfaces(t *testing.T) {
	bad := errors.New("no such device")
	c := newCoord(t, Options{Nodes: 2}, func(node string) (device.Device, error) {
		return nil, bad
	})
	if _, err := each(context.Background(), c, 0, 4, func(_ context.Context, _ device.Device, i int) (int, error) {
		return i, nil
	}); !errors.Is(err, bad) {
		t.Fatalf("err = %v, want factory error", err)
	}
}

// TestRemediationReopensDevice checks the reboot model: a remediated
// node hosts a fresh factory product, not the cordoned instance.
func TestRemediationReopensDevice(t *testing.T) {
	var mu sync.Mutex
	opened := 0
	factory := func(node string) (device.Device, error) {
		mu.Lock()
		opened++
		mu.Unlock()
		return device.Open("p100")
	}
	opts := Options{
		Nodes:       1,
		ShardSize:   1,
		CordonAfter: 1,
		CordonTicks: 1,
		Chaos:       Chaos{Seed: 3, Flaky: 0.5},
	}
	c := newCoord(t, opts, factory)
	if _, err := each(context.Background(), c, 0, 8, func(_ context.Context, _ device.Device, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Remediations == 0 {
		t.Fatal("schedule produced no remediations — the test is vacuous")
	}
	if want := 1 + s.Remediations; opened != want {
		t.Errorf("factory called %d times, want %d (1 open + %d remediations)", opened, want, s.Remediations)
	}
}

// TestEventLogReplaysFromSeed is the replayability contract: the same
// (options, chaos seed, item count) produce the identical event log —
// and so the identical digest — on every run, at every parallelism,
// while a different seed produces a different interleaving.
func TestEventLogReplaysFromSeed(t *testing.T) {
	run := func(seed int64, parallelism int) []Event {
		opts := Options{
			Nodes:       3,
			ShardSize:   2,
			CordonAfter: 1,
			Chaos:       Chaos{Seed: seed, Preempt: 0.3, Flaky: 0.25, Slow: 0.3},
		}
		c := newCoord(t, opts, registryFactory())
		if _, err := each(context.Background(), c, parallelism, 14, func(_ context.Context, _ device.Device, i int) (int, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.Events()
	}
	base := run(42, 1)
	if len(base) == 0 {
		t.Fatal("empty event log")
	}
	for _, parallelism := range []int{1, 2, 8} {
		got := run(42, parallelism)
		if DigestEvents(got) != DigestEvents(base) {
			t.Errorf("parallelism=%d changed the event log:\nbase: %v\ngot:  %v", parallelism, base, got)
		}
	}
	if DigestEvents(run(43, 1)) == DigestEvents(base) {
		t.Error("different seeds produced identical event logs")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Tick: 4, Kind: EventCordon, Node: "node1", Shard: -1, Detail: "flapping health"}
	if got := e.String(); got != "t=4 cordon node=node1 (flapping health)" {
		t.Errorf("Event.String() = %q", got)
	}
	d := Event{Tick: 1, Kind: EventDispatch, Node: "node0", Shard: 2, Attempt: 3}
	if got := d.String(); got != "t=1 dispatch node=node0 shard=2 attempt=3" {
		t.Errorf("Event.String() = %q", got)
	}
}

func TestPlanDerivesNodePlans(t *testing.T) {
	plan := fault.Plan{Seed: 9, Transient: 0.5}
	st, err := Plan{Device: "p100", Faults: plan, Fleet: &Options{Nodes: 2}}.Open()
	if err != nil {
		t.Fatal(err)
	}
	if st.Dev != st.Ref {
		t.Errorf("fleet stack streams %T, want the clean reference device", st.Dev)
	}
	d0, err := st.Coord.factory("node0")
	if err != nil {
		t.Fatal(err)
	}
	d1, err := st.Coord.factory("node1")
	if err != nil {
		t.Fatal(err)
	}
	fd0, ok0 := d0.(*fault.Device)
	fd1, ok1 := d1.(*fault.Device)
	if !ok0 || !ok1 {
		t.Fatalf("node factory did not wrap faults: %T, %T", d0, d1)
	}
	if _, n := st.Injectors.Stats(); n != 2 {
		t.Errorf("stack collected %d injectors, want 2", n)
	}
	// The wrapped devices keep the registry identity (the cache-sharing
	// precondition) while their schedules derive from distinct seeds.
	if fd0.Name() != "p100" || fd1.Kind() != "gpu" {
		t.Errorf("wrapped identity lost: %s/%s", fd0.Name(), fd1.Kind())
	}
	if fmt.Sprint(NodePlan(plan, "node0").Seed) == fmt.Sprint(NodePlan(plan, "node1").Seed) {
		t.Error("node plans share a seed")
	}
	if got := NodePlan(plan, "node0"); got.Transient != plan.Transient {
		t.Errorf("NodePlan changed the schedule shape: %+v", got)
	}
}
