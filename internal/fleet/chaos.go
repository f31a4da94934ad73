package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"energyprop/internal/device"
	"energyprop/internal/randsrc"
)

// Chaos is the fleet's deterministic node-failure schedule — the
// node-level analog of fault.Plan. Every draw is a pure function of
// (Seed, identity, virtual time): its rng seed is device.AttemptSeed
// over the draw kind and the identity, NUL-separated, and the counter,
// so a preempt draw never aliases a health draw and a chaos-ridden fleet
// campaign replays the exact same preemptions, health flaps, and slow
// shards from its seed alone: no wall clock, no global rand, no
// dependence on goroutine scheduling.
//
// Failure taxonomy (all node-level; device-level faults are
// fault.Plan's business and can be layered per node on top):
//
//   - preempt: the node is lost mid-shard (spot reclaim, OOM kill); the
//     shard's results are discarded and the shard is re-queued on a
//     healthy node. Drawn per (shard, dispatch attempt), so requeue
//     traffic does not depend on which node hosted the shard.
//   - flaky: the node fails a health check this tick. Enough
//     consecutive failures cordon the node (no new shards) until the
//     remediation window passes.
//   - slow: the dispatched shard takes SlowTicks extra virtual ticks to
//     complete, occupying the node and pushing later shards to other
//     nodes — the straggler knob.
type Chaos struct {
	// Seed drives every draw. Two chaos schedules with the same seed
	// and rates behave identically against the same campaign shape.
	Seed int64
	// Preempt is the probability that a dispatched shard is lost and
	// re-queued, drawn per (shard, attempt).
	Preempt float64
	// Flaky is the probability that a node fails one tick's health
	// check, drawn per (node, tick).
	Flaky float64
	// Slow is the probability that a dispatched shard runs slow, drawn
	// per (node, shard, attempt).
	Slow float64
	// SlowTicks is the extra virtual duration of a slow shard; 0 means
	// DefaultSlowTicks when Slow > 0.
	SlowTicks Tick
}

// DefaultSlowTicks is the extra duration of a slow shard when the
// schedule does not name one.
const DefaultSlowTicks = 3

// Validate checks the schedule's ranges.
func (c Chaos) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"preempt", c.Preempt}, {"flaky", c.Flaky}, {"slow", c.Slow}} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("fleet: %s probability %v out of [0, 1]", f.name, f.v)
		}
	}
	if c.SlowTicks < 0 {
		return fmt.Errorf("fleet: negative slow_ticks %d", c.SlowTicks)
	}
	return nil
}

// slowTicks resolves the slow-shard duration.
func (c Chaos) slowTicks() Tick {
	if c.SlowTicks > 0 {
		return c.SlowTicks
	}
	return DefaultSlowTicks
}

// drawFloat returns the first Float64 of the generator seeded with seed;
// each chaos decision is one such draw.
func drawFloat(seed int64) float64 {
	rng := randsrc.Get(seed)
	defer randsrc.Put(rng)
	return rng.Float64()
}

// healthOK reports one tick's health verdict for a node: false means
// the check failed. A pure function of (seed, node, tick).
func (c Chaos) healthOK(node string, t Tick) bool {
	if c.Flaky <= 0 {
		return true
	}
	return drawFloat(device.AttemptSeed(c.Seed, "health\x00"+node, int64(t))) >= c.Flaky
}

// preempted reports whether a shard's k-th dispatch is lost mid-flight.
// A pure function of (seed, shard, attempt) — deliberately independent
// of the hosting node, so requeue traffic replays identically however
// node availability evolves.
func (c Chaos) preempted(shard, attempt int) bool {
	if c.Preempt <= 0 {
		return false
	}
	return drawFloat(device.AttemptSeed(c.Seed, "preempt\x00"+strconv.Itoa(shard), int64(attempt))) < c.Preempt
}

// slowExtra returns the extra virtual ticks a dispatch runs slow by
// (zero for a healthy-speed shard). A pure function of (seed, node,
// shard, attempt).
func (c Chaos) slowExtra(node string, shard, attempt int) Tick {
	if c.Slow <= 0 {
		return 0
	}
	if drawFloat(device.AttemptSeed(c.Seed, "slow\x00"+node+"/"+strconv.Itoa(shard), int64(attempt))) < c.Slow {
		return c.slowTicks()
	}
	return 0
}

// ParseChaos parses the CLI node-chaos syntax shared by `gpusweep
// -nodefaults` and `epstudy -nodefaults` (and mirrored by the service's
// node_faults body): a comma-separated key=value list, e.g.
//
//	seed=9,preempt=0.2,flaky=0.1,slow=0.1,slowticks=4
//
// Keys: seed (int), preempt/flaky/slow (probabilities in [0, 1]),
// slowticks (a positive tick count). Unknown keys are errors so typos
// cannot silently disable a chaos run. The empty string parses to the
// zero (disabled) schedule.
func ParseChaos(s string) (Chaos, error) {
	var c Chaos
	s = strings.TrimSpace(s)
	if s == "" {
		return c, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Chaos{}, fmt.Errorf("fleet: bad chaos field %q (want key=value)", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		case "preempt":
			c.Preempt, err = strconv.ParseFloat(val, 64)
		case "flaky":
			c.Flaky, err = strconv.ParseFloat(val, 64)
		case "slow":
			c.Slow, err = strconv.ParseFloat(val, 64)
		case "slowticks":
			var n int64
			n, err = strconv.ParseInt(val, 10, 64)
			c.SlowTicks = Tick(n)
		default:
			return Chaos{}, fmt.Errorf("fleet: unknown chaos key %q (want seed, preempt, flaky, slow, slowticks)", key)
		}
		if err != nil {
			return Chaos{}, fmt.Errorf("fleet: bad %s value %q: %v", key, val, err)
		}
	}
	if err := c.Validate(); err != nil {
		return Chaos{}, err
	}
	return c, nil
}

// String renders the schedule in ParseChaos syntax (round-trippable).
func (c Chaos) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.Preempt > 0 {
		parts = append(parts, "preempt="+strconv.FormatFloat(c.Preempt, 'g', -1, 64))
	}
	if c.Flaky > 0 {
		parts = append(parts, "flaky="+strconv.FormatFloat(c.Flaky, 'g', -1, 64))
	}
	if c.Slow > 0 {
		parts = append(parts, "slow="+strconv.FormatFloat(c.Slow, 'g', -1, 64))
	}
	if c.SlowTicks > 0 {
		parts = append(parts, "slowticks="+strconv.FormatInt(int64(c.SlowTicks), 10))
	}
	return strings.Join(parts, ",")
}
