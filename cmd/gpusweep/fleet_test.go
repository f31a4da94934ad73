package main

import (
	"strings"
	"testing"
)

// dataRows strips CSV comment rows, leaving header + data.
func dataRows(out string) []string {
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		rows = append(rows, line)
	}
	return rows
}

// TestFleetSweepMatchesLocal is gpusweep's face of the fleet invariant:
// a chaos-ridden fleet sweep emits exactly the data rows of a local
// sweep, with the control-plane activity confined to "# fleet:"
// comments.
func TestFleetSweepMatchesLocal(t *testing.T) {
	args := []string{"-device", "p100", "-n", "4096", "-products", "2"}
	local, _, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}
	fleetOut, _, code := runCLI(t, append(args,
		"-executor", "fleet", "-nodes", "3", "-shardsize", "2",
		"-nodefaults", "seed=9,preempt=0.3,flaky=0.2,slow=0.3")...)
	if code != 0 {
		t.Fatalf("fleet sweep exit %d", code)
	}
	lRows, fRows := dataRows(local), dataRows(fleetOut)
	if len(lRows) != len(fRows) {
		t.Fatalf("row counts differ: local %d, fleet %d", len(lRows), len(fRows))
	}
	for i := range lRows {
		if lRows[i] != fRows[i] {
			t.Errorf("row %d differs:\nlocal: %s\nfleet: %s", i, lRows[i], fRows[i])
		}
	}
	if !strings.Contains(fleetOut, "# fleet: nodes=3") {
		t.Error("fleet sweep emitted no # fleet: comment")
	}
	if !strings.Contains(fleetOut, "preemptions=") || strings.Contains(fleetOut, "preemptions=0 ") {
		t.Error("chaos schedule injected no preemptions — the comparison is vacuous")
	}
}

// TestFleetSweepWithDeviceFaults layers per-node device faults under
// node chaos: with a retry budget every configuration survives and the
// aggregated injector counters land in the "# faults:" comment.
func TestFleetSweepWithDeviceFaults(t *testing.T) {
	out, _, code := runCLI(t, "-device", "p100", "-n", "4096", "-products", "2",
		"-executor", "fleet", "-nodes", "3",
		"-nodefaults", "seed=5,preempt=0.25",
		"-faults", "seed=97,transient=0.2,drop=0.05", "-retries", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "# failed:") {
		t.Error("configurations failed despite the retry budget")
	}
	if !strings.Contains(out, "node injectors") {
		t.Error("no aggregated # faults: comment for the node injectors")
	}
}

// TestFleetFlagValidation pins gpusweep's face of the executor flag
// group's usage errors: exit code 2 and the "gpusweep: " prefix. The
// messages themselves are pinned in internal/cli.
func TestFleetFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-executor", "cloud"},
		{"-nodes", "3"},
		{"-shardsize", "2"},
		{"-nodefaults", "seed=1"},
		{"-executor", "fleet", "-nodefaults", "bogus=1"},
		{"-executor", "fleet", "-nodefaults", "seed=1,preempt=1.5"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			_, stderr, code := runCLI(t, append([]string{"-device", "haswell", "-n", "48", "-products", "1"}, args...)...)
			if code != 2 || !strings.HasPrefix(stderr, "gpusweep: -") {
				t.Errorf("exit %d, want 2 (stderr: %s)", code, stderr)
			}
		})
	}
}
