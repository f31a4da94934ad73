package cli

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"energyprop/internal/fault"
	"energyprop/internal/fleet"
)

// parseCampaignFlags registers the group on a fresh flag set, parses
// args, and resolves the plan.
func parseCampaignFlags(t *testing.T, args ...string) (*CampaignFlags, fleet.Plan, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := NewCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	plan, err := cf.Plan()
	return cf, plan, err
}

// TestCampaignFlagsRejections pins every usage error of the shared flag
// group, byte for byte: each CLI prints it behind its own "name: "
// prefix and exits 2.
func TestCampaignFlagsRejections(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-reps", "0"}, "-reps must be >= 1 (got 0)"},
		{[]string{"-reps", "-3"}, "-reps must be >= 1 (got -3)"},
		{[]string{"-retries", "-1"}, "-retries must be >= 0 (got -1)"},
		{[]string{"-faults", "bogus=1"}, `-faults: fault: unknown plan key "bogus" (want seed, transient, drop, outlier, latency)`},
		{[]string{"-faults", "transient"}, `-faults: fault: bad plan field "transient" (want key=value)`},
		{[]string{"-faults", "seed=1,transient=1.5"}, "-faults: fault: transient probability 1.5 out of [0, 1]"},
		{[]string{"-faults", "seed=1,transient=0.7,drop=0.7"}, "-faults: fault: class probabilities sum to 1.4 > 1"},
		{[]string{"-nodes", "3"}, "-nodes, -shardsize, and -nodefaults require -executor fleet"},
		{[]string{"-shardsize", "2"}, "-nodes, -shardsize, and -nodefaults require -executor fleet"},
		{[]string{"-executor", "local", "-nodefaults", "seed=1"}, "-nodes, -shardsize, and -nodefaults require -executor fleet"},
		{[]string{"-executor", "cloud"}, `-executor "cloud": want "local" or "fleet"`},
		{[]string{"-executor", "fleet", "-nodefaults", "bogus=1"}, `-nodefaults: fleet: unknown chaos key "bogus" (want seed, preempt, flaky, slow, slowticks)`},
		{[]string{"-executor", "fleet", "-nodefaults", "seed=1,preempt=1.5"}, "-nodefaults: fleet: preempt probability 1.5 out of [0, 1]"},
		// The first failing check wins, in flag-group order.
		{[]string{"-reps", "0", "-retries", "-1", "-executor", "cloud"}, "-reps must be >= 1 (got 0)"},
		{[]string{"-faults", "bogus", "-executor", "cloud"}, `-faults: fault: bad plan field "bogus" (want key=value)`},
	} {
		_, _, err := parseCampaignFlags(t, tc.args...)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%v:\n got %q\nwant %q", tc.args, err, tc.want)
		}
	}
}

// TestCampaignFlagsPlan checks what a valid group resolves to.
func TestCampaignFlagsPlan(t *testing.T) {
	cf, plan, err := parseCampaignFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Reps != 1 || cf.Retries != 0 || !reflect.DeepEqual(plan, fleet.Plan{}) {
		t.Errorf("defaults: reps=%d retries=%d plan=%+v, want 1, 0, a local fault-free plan", cf.Reps, cf.Retries, plan)
	}
	if got := cf.Retry(); got.MaxAttempts != 1 {
		t.Errorf("default retry policy %+v, want one attempt", got)
	}

	cf, plan, err = parseCampaignFlags(t, "-reps", "2", "-retries", "3",
		"-faults", "seed=7,transient=0.25", "-executor", "fleet", "-shardsize", "5",
		"-nodefaults", "seed=9,preempt=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if cf.Reps != 2 || cf.Retry().MaxAttempts != 4 {
		t.Errorf("reps=%d retry=%+v, want 2 and four attempts", cf.Reps, cf.Retry())
	}
	if plan.Faults != (fault.Plan{Seed: 7, Transient: 0.25}) {
		t.Errorf("faults %+v", plan.Faults)
	}
	want := fleet.Options{Nodes: 3, ShardSize: 5, Chaos: fleet.Chaos{Seed: 9, Preempt: 0.5}}
	if plan.Fleet == nil || *plan.Fleet != want {
		t.Errorf("fleet %+v, want %+v", plan.Fleet, want)
	}
}
