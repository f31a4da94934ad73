package cli

import (
	"errors"
	"flag"
	"fmt"

	"energyprop/internal/fault"
	"energyprop/internal/fleet"
)

// CampaignFlags is the flag group gpusweep and epstudy share for a
// measured campaign: repetition, fault injection and retries, and the
// executor with its fleet sizing and node-failure schedule.
type CampaignFlags struct {
	// Reps repeats the campaign; repeats hit the in-process cache.
	Reps int
	// Retries is the per-point budget of extra attempts.
	Retries int

	faults     string
	executor   string
	nodes      int
	shardSize  int
	nodeFaults string
}

// NewCampaignFlags registers the group on fs.
func NewCampaignFlags(fs *flag.FlagSet) *CampaignFlags {
	c := &CampaignFlags{}
	fs.IntVar(&c.Reps, "reps", 1, "repeat the campaign; repeats hit the in-process cache")
	fs.IntVar(&c.Retries, "retries", 0, "extra attempts per configuration after a failed run")
	fs.StringVar(&c.faults, "faults", "", "inject deterministic faults, e.g. seed=7,transient=0.2,drop=0.1,outlier=0.05,latency=2ms")
	fs.StringVar(&c.executor, "executor", "local", `fan-out strategy: "local" or "fleet"`)
	fs.IntVar(&c.nodes, "nodes", 0, "simulated fleet size for -executor fleet (0 = 3)")
	fs.IntVar(&c.shardSize, "shardsize", 0, "configurations per fleet shard (0 = one shard per node)")
	fs.StringVar(&c.nodeFaults, "nodefaults", "", "node-failure schedule for -executor fleet, e.g. seed=9,preempt=0.2,flaky=0.1,slow=0.1")
	return c
}

// Plan validates the parsed group and returns the fault schedule and
// executor it selects; the caller fills in the device, analytic mode,
// and policy. A fleet round runs as many shards at once as the
// campaign's Spec.Workers allows. The fleet sizing and chaos flags are
// rejected under -executor local so a typo'd chaos run cannot silently
// fall back to a calm local pool.
func (c *CampaignFlags) Plan() (fleet.Plan, error) {
	if c.Reps < 1 {
		return fleet.Plan{}, fmt.Errorf("-reps must be >= 1 (got %d)", c.Reps)
	}
	if c.Retries < 0 {
		return fleet.Plan{}, fmt.Errorf("-retries must be >= 0 (got %d)", c.Retries)
	}
	faults, err := fault.ParsePlan(c.faults)
	if err != nil {
		return fleet.Plan{}, fmt.Errorf("-faults: %w", err)
	}
	plan := fleet.Plan{Faults: faults}
	switch c.executor {
	case "local", "":
		if c.nodes != 0 || c.shardSize != 0 || c.nodeFaults != "" {
			return fleet.Plan{}, errors.New(`-nodes, -shardsize, and -nodefaults require -executor fleet`)
		}
		return plan, nil
	case "fleet":
	default:
		return fleet.Plan{}, fmt.Errorf(`-executor %q: want "local" or "fleet"`, c.executor)
	}
	chaos, err := fleet.ParseChaos(c.nodeFaults)
	if err != nil {
		return fleet.Plan{}, fmt.Errorf("-nodefaults: %w", err)
	}
	nodes := c.nodes
	if nodes == 0 {
		nodes = 3
	}
	plan.Fleet = &fleet.Options{Nodes: nodes, ShardSize: c.shardSize, Chaos: chaos}
	return plan, nil
}

// Retry is the per-point retry policy the group selects.
func (c *CampaignFlags) Retry() fault.RetryPolicy {
	return fault.RetryPolicy{MaxAttempts: c.Retries + 1}
}
