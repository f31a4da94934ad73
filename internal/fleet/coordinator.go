// Package fleet promotes the campaign engine to a fleet: a coordinator
// shards a campaign across simulated worker nodes — each hosting its own
// instance of the campaign's device — with per-tick health checks,
// cordoning of misbehaving nodes, and automatic remediation (preempted
// shards are re-queued on healthy nodes, cordoned nodes return to
// service with a fresh device after their remediation window).
//
// The whole simulation is deterministic by construction. Scheduling
// decisions are made in single-threaded rounds on a virtual clock
// (Clock), every failure draw is seeded by device.AttemptSeed, a pure
// function of (chaos seed, identity, virtual time), and the only
// concurrency — executing one round's dispatched shards through
// internal/parallel — commits outcomes to campaign.Job, which
// delivers them in configuration order whichever shard finishes first.
// A fleet campaign under any chaos schedule therefore produces records
// byte-identical to a serial fault-free campaign (the PR 5 invariant,
// carried up a layer: a point's measurement is a pure function of
// (campaign seed, config), whichever node runs it, however many times
// it is preempted first), and the full cordon/remediate/preempt
// interleaving replays from the seed (see DigestEvents and the
// committed regression corpus in testdata/fleet_seeds.json).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"energyprop/internal/device"
	"energyprop/internal/parallel"
)

// Options shapes a coordinator's fleet.
type Options struct {
	// Nodes is the number of simulated worker nodes (>= 1).
	Nodes int
	// ShardSize is the number of configurations per shard; 0 derives
	// ceil(items/Nodes) so a calm fleet does one shard per node.
	ShardSize int
	// Chaos is the node-failure schedule; the zero value disables it.
	Chaos Chaos
	// CordonAfter is the number of consecutive failed health checks
	// that cordons a node; 0 means DefaultCordonAfter.
	CordonAfter int
	// CordonTicks is how long a cordon lasts before the node is
	// eligible for remediation; 0 means DefaultCordonTicks.
	CordonTicks Tick
	// MaxStrikes is the number of preemptions charged to one node
	// before it is cordoned as misbehaving; 0 means DefaultMaxStrikes.
	MaxStrikes int
	// StallRounds is how many consecutive rounds the fleet may sit with
	// work queued but every node cordoned before the run aborts; 0
	// means DefaultStallRounds.
	StallRounds int
	// MaxRounds is the absolute round budget (a safety valve against
	// pathological schedules); 0 means DefaultMaxRounds.
	MaxRounds int
}

// Option defaults.
const (
	DefaultCordonAfter = 2
	DefaultCordonTicks = Tick(3)
	DefaultMaxStrikes  = 3
	DefaultStallRounds = 64
	DefaultMaxRounds   = 100000
)

// withDefaults resolves the zero knobs.
func (o Options) withDefaults() Options {
	if o.CordonAfter == 0 {
		o.CordonAfter = DefaultCordonAfter
	}
	if o.CordonTicks == 0 {
		o.CordonTicks = DefaultCordonTicks
	}
	if o.MaxStrikes == 0 {
		o.MaxStrikes = DefaultMaxStrikes
	}
	if o.StallRounds == 0 {
		o.StallRounds = DefaultStallRounds
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = DefaultMaxRounds
	}
	return o
}

// Validate checks the resolved options.
func (o Options) Validate() error {
	if o.Nodes < 1 {
		return fmt.Errorf("fleet: nodes=%d, need at least one node", o.Nodes)
	}
	if o.ShardSize < 0 {
		return fmt.Errorf("fleet: negative shard size %d", o.ShardSize)
	}
	if o.CordonAfter < 1 || o.MaxStrikes < 1 || o.StallRounds < 1 || o.MaxRounds < 1 || o.CordonTicks < 1 {
		return errors.New("fleet: cordon/stall thresholds must be positive")
	}
	return o.Chaos.Validate()
}

// Stats counts one run's control-plane activity.
type Stats struct {
	// Rounds is the number of virtual-clock ticks the run took.
	Rounds int `json:"rounds"`
	// Shards is the campaign's shard count.
	Shards int `json:"shards"`
	// Dispatches counts shard assignments (requeued shards re-count).
	Dispatches int `json:"dispatches"`
	// Completions counts shards whose results were committed.
	Completions int `json:"completions"`
	// Preemptions counts shards lost mid-flight; Requeues counts their
	// trips back onto the queue (always equal, kept separate so the
	// event log and stats cross-check).
	Preemptions int `json:"preemptions"`
	Requeues    int `json:"requeues"`
	// HealthFailures counts failed per-tick health checks; Cordons and
	// Remediations count the resulting node transitions.
	HealthFailures int `json:"health_failures"`
	Cordons        int `json:"cordons"`
	Remediations   int `json:"remediations"`
}

// Coordinator is the fleet control plane: it owns the virtual clock,
// the simulated nodes, and the shard queue, and schedules one campaign
// at a time (runs serialize on an internal mutex). Each run
// starts from a cold fleet — clock at zero, fresh devices, empty event
// log — so a run's behaviour is a pure function of (options, chaos
// seed, item count).
type Coordinator struct {
	opts    Options
	factory DeviceFactory

	// runMu admits one campaign at a time; it is held for a run's whole
	// duration, including shard execution. mu guards the control-plane
	// state below and is released around execution, so Stats, Events,
	// and Nodes snapshots are never blocked behind a running
	// measurement — only behind a round's bookkeeping.
	runMu sync.Mutex

	mu     sync.Mutex
	clock  Clock
	nodes  []*node
	events []Event
	stats  Stats
}

// New builds a coordinator. The factory is called lazily at the start
// of each run (and on every remediation), so New itself cannot fail on
// device problems.
func New(opts Options, factory DeviceFactory) (*Coordinator, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, errors.New("fleet: nil device factory")
	}
	return &Coordinator{opts: opts, factory: factory}, nil
}

// Options returns the resolved options the coordinator runs with.
func (c *Coordinator) Options() Options { return c.opts }

// Stats snapshots the last (or in-progress) run's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Events snapshots the last run's event log.
func (c *Coordinator) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Nodes snapshots the node states.
func (c *Coordinator) Nodes() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = NodeStatus{Name: n.name, Cordoned: n.cordoned, Busy: n.busy(), Strikes: n.strikes}
	}
	return out
}

// queued is one shard waiting for a node.
type queued struct {
	shard   int
	attempt int
}

// shardItems returns the item indexes of one shard: contiguous ranges
// of size shardSize, the last one ragged.
func shardItems(n, size, shard int) []int {
	start := shard * size
	end := min(start+size, n)
	items := make([]int, 0, end-start)
	for i := start; i < end; i++ {
		items = append(items, i)
	}
	return items
}

// resolveShardSize derives the effective shard size for n items.
func (c *Coordinator) resolveShardSize(n int) int {
	size := c.opts.ShardSize
	if size <= 0 {
		size = (n + c.opts.Nodes - 1) / c.opts.Nodes
	}
	return max(size, 1)
}

// run is the scheduling loop: single-threaded rounds on the virtual
// clock, with only each round's dispatched shard executions fanned out,
// at most workers at a time (workers < 1 selects GOMAXPROCS; results
// are identical for every value — scheduling is decided before
// execution). exec runs one item on its hosting node's device and must
// be a pure function of the item, not of the node or of wall time.
// The state lock mu is dropped for step 4 (execution): a shard can run
// real measurements for seconds, and holding mu across them would
// serialize every Stats/Events/Nodes reader behind the campaign — the
// exact hazard the lockorder lint rule exists to catch.
func (c *Coordinator) run(ctx context.Context, workers, n int, exec func(ctx context.Context, dev device.Device, item int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.runMu.Lock()
	defer c.runMu.Unlock()
	c.mu.Lock()
	if err := c.reset(); err != nil {
		c.mu.Unlock()
		return err
	}
	size := c.resolveShardSize(n)
	shardCount := (n + size - 1) / size
	c.stats.Shards = shardCount
	queue := make([]queued, 0, shardCount)
	for s := 0; s < shardCount; s++ {
		queue = append(queue, queued{shard: s, attempt: 1})
	}
	pending := shardCount
	stalled := 0

	for pending > 0 {
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return err
		}
		if c.stats.Rounds >= c.opts.MaxRounds {
			c.mu.Unlock()
			return fmt.Errorf("fleet: exceeded the %d-round budget with %d shards pending", c.opts.MaxRounds, pending)
		}
		t := c.clock.Advance()
		c.stats.Rounds++

		// 1. Completions: commit or discard assignments that are due.
		for _, nd := range c.nodes {
			if !nd.busy() || nd.busyUntil > t {
				continue
			}
			a := nd.assignment
			nd.assignment = nil
			if a.preempt {
				c.stats.Preemptions++
				nd.strikes++
				c.event(Event{Tick: t, Kind: EventPreempt, Node: nd.name, Shard: a.shard, Attempt: a.attempt,
					Detail: fmt.Sprintf("strike %d", nd.strikes)})
				queue = append(queue, queued{shard: a.shard, attempt: a.attempt + 1})
				c.stats.Requeues++
				c.event(Event{Tick: t, Kind: EventRequeue, Shard: a.shard, Attempt: a.attempt + 1})
				if !nd.cordoned && nd.strikes >= c.opts.MaxStrikes {
					c.cordon(nd, t, "preempt strikes")
				}
				continue
			}
			c.stats.Completions++
			pending--
			c.event(Event{Tick: t, Kind: EventComplete, Node: nd.name, Shard: a.shard, Attempt: a.attempt})
		}

		// 2. Health: per-tick checks. Healthy nodes accumulate failure
		// streaks toward a cordon; cordoned nodes past their window are
		// remediated only once a check passes again (and they are idle,
		// so a draining node finishes its shard first).
		for _, nd := range c.nodes {
			ok := c.opts.Chaos.healthOK(nd.name, t)
			if !nd.cordoned {
				if ok {
					nd.failStreak = 0
					continue
				}
				nd.failStreak++
				c.stats.HealthFailures++
				c.event(Event{Tick: t, Kind: EventHealthFail, Node: nd.name, Shard: -1,
					Detail: fmt.Sprintf("streak %d", nd.failStreak)})
				if nd.failStreak >= c.opts.CordonAfter {
					c.cordon(nd, t, "flapping health")
				}
				continue
			}
			if ok && t >= nd.cordonUntil && !nd.busy() {
				if err := c.remediate(nd, t); err != nil {
					c.mu.Unlock()
					return err
				}
			}
		}

		// 3. Dispatch: queued shards to idle healthy nodes, in queue and
		// node order. The shard's fate (preemption, slowness) is drawn
		// now, so execution below cannot influence scheduling.
		var batch []*node
		for _, nd := range c.nodes {
			if len(queue) == 0 {
				break
			}
			if nd.busy() || nd.cordoned {
				continue
			}
			q := queue[0]
			queue = queue[1:]
			a := &assignment{
				shard:    q.shard,
				attempt:  q.attempt,
				preempt:  c.opts.Chaos.preempted(q.shard, q.attempt),
				outcomes: shardItems(n, size, q.shard),
			}
			nd.assignment = a
			nd.busyUntil = t + 1 + c.opts.Chaos.slowExtra(nd.name, q.shard, q.attempt)
			c.stats.Dispatches++
			detail := ""
			if d := nd.busyUntil - t; d > 1 {
				detail = fmt.Sprintf("slow, %d ticks", d)
			}
			c.event(Event{Tick: t, Kind: EventDispatch, Node: nd.name, Shard: q.shard, Attempt: q.attempt, Detail: detail})
			if !a.preempt {
				batch = append(batch, nd)
			}
		}

		// 4. Execute this round's surviving dispatches, at most workers
		// at a time, with mu released so readers can snapshot
		// mid-campaign. exec commits by item index, so goroutine
		// interleaving is invisible; a preempted dispatch never runs
		// (its loss was decided above), so no item executes twice.
		// Nothing else mutates node assignments until this round's For
		// returns: runMu keeps other runs out, and the scheduling loop
		// itself is blocked right here.
		c.mu.Unlock()
		if len(batch) > 0 {
			//lint:ignore lockorder runMu is the campaign admission lock: it serializes whole runs by design, no reader takes it, and the state lock mu is released here
			err := parallel.For(ctx, workers, len(batch), func(ctx context.Context, k int) error {
				nd := batch[k]
				for _, item := range nd.assignment.outcomes {
					if err := exec(ctx, nd.dev, item); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		c.mu.Lock()

		// 5. Stall detection: work queued, nothing running, and no node
		// accepting — the fleet can only wait on remediation. If that
		// persists past the stall budget, the campaign cannot finish.
		if pending > 0 && len(batch) == 0 && c.allUnavailable() {
			stalled++
			if stalled > c.opts.StallRounds {
				c.mu.Unlock()
				return fmt.Errorf("fleet: stalled for %d rounds with %d shards pending and all %d nodes cordoned",
					stalled, pending, len(c.nodes))
			}
		} else {
			stalled = 0
		}
	}
	c.mu.Unlock()
	return nil
}

// allUnavailable reports whether every node is cordoned and idle.
func (c *Coordinator) allUnavailable() bool {
	for _, nd := range c.nodes {
		if !nd.cordoned || nd.busy() {
			return false
		}
	}
	return true
}

// reset rewinds the coordinator to a cold fleet for a new run.
func (c *Coordinator) reset() error {
	nodes, err := openNodes(c.opts.Nodes, c.factory)
	if err != nil {
		return err
	}
	c.nodes = nodes
	c.clock.Reset()
	c.events = c.events[:0]
	c.stats = Stats{}
	return nil
}

// cordon takes a node out of dispatch rotation.
func (c *Coordinator) cordon(nd *node, t Tick, reason string) {
	nd.cordoned = true
	nd.cordonUntil = t + c.opts.CordonTicks
	c.stats.Cordons++
	c.event(Event{Tick: t, Kind: EventCordon, Node: nd.name, Shard: -1, Detail: reason})
}

// remediate returns a cordoned node to service with a fresh device —
// the reboot model: whatever state the old instance accumulated (fault
// injector attempt counters, ablations) is gone.
func (c *Coordinator) remediate(nd *node, t Tick) error {
	dev, err := c.factory(nd.name)
	if err != nil {
		return fmt.Errorf("fleet: remediating %s: %w", nd.name, err)
	}
	nd.dev = dev
	nd.cordoned = false
	nd.cordonUntil = 0
	nd.failStreak = 0
	nd.strikes = 0
	c.stats.Remediations++
	c.event(Event{Tick: t, Kind: EventRemediate, Node: nd.name, Shard: -1})
	return nil
}

// event appends to the run's log.
func (c *Coordinator) event(e Event) { c.events = append(c.events, e) }
