package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestDeviceCampaignGolden locks the -device table output byte-for-byte
// against committed goldens, clean and under a deterministic fault
// schedule: the table is a pure function of (device, workload, seed,
// fault plan), so any byte drift is either a deliberate format change
// (regenerate with -update) or a determinism regression.
func TestDeviceCampaignGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"device_haswell_n48.golden.txt",
			[]string{"-device", "haswell", "-n", "48", "-products", "1"}},
		{"device_haswell_n48_csv.golden.csv",
			[]string{"-device", "haswell", "-n", "48", "-products", "1", "-csv"}},
		{"device_p100_n1024_faults.golden.txt",
			[]string{"-device", "p100", "-n", "1024", "-products", "2",
				"-faults", "seed=7,transient=0.6", "-retries", "4"}},
		// The policy study: per-point table, race-vs-paced comparison,
		// and the Pareto front over policy × configuration. Sizes are
		// large enough that the fixed-precision columns carry signal.
		{"policy_p100_spmv.golden.txt",
			[]string{"-mode", "policy", "-device", "p100", "-app", "spmv",
				"-n", "2097152", "-products", "40"}},
		{"policy_p100_spmv_csv.golden.csv",
			[]string{"-mode", "policy", "-device", "p100", "-app", "spmv",
				"-n", "2097152", "-products", "40", "-csv"}},
		{"policy_haswell_stencil.golden.txt",
			[]string{"-mode", "policy", "-device", "haswell", "-app", "stencil",
				"-n", "8192", "-products", "20", "-slack", "2", "-floor", "0.5",
				"-policies", "race,paced"}},
		// The policy study under a fault schedule on a wide pool: the
		// injector wraps the policy device, so every policy point owns
		// its attempt schedule and the table does not depend on which
		// worker reached a race or paced sibling first.
		{"policy_haswell_stencil_faults_w64.golden.txt",
			[]string{"-mode", "policy", "-device", "haswell", "-app", "stencil",
				"-n", "8192", "-products", "20", "-faults", "seed=3,transient=0.4",
				"-retries", "1", "-workers", "64"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			out, stderr, code := runCLI(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, out, want)
			}
		})
	}
}

// TestDeviceCampaignFleetMatchesLocal is epstudy's face of the fleet
// invariant: the measured table rows of a chaos-ridden fleet campaign
// equal the local campaign's, with the control plane confined to notes.
func TestDeviceCampaignFleetMatchesLocal(t *testing.T) {
	args := []string{"-device", "p100", "-n", "1024", "-products", "2"}
	local, _, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local campaign exit %d", code)
	}
	fleetOut, _, code := runCLI(t, append(args,
		"-executor", "fleet", "-nodes", "3", "-shardsize", "2",
		"-nodefaults", "seed=9,preempt=0.3,flaky=0.2,slow=0.3")...)
	if code != 0 {
		t.Fatalf("fleet campaign exit %d", code)
	}
	rows := func(out string) []string {
		var keep []string
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, "note:") {
				continue
			}
			keep = append(keep, line)
		}
		return keep
	}
	lRows, fRows := rows(local), rows(fleetOut)
	if len(lRows) != len(fRows) {
		t.Fatalf("row counts differ: local %d, fleet %d", len(lRows), len(fRows))
	}
	for i := range lRows {
		if lRows[i] != fRows[i] {
			t.Errorf("row %d differs:\nlocal: %s\nfleet: %s", i, lRows[i], fRows[i])
		}
	}
	if !strings.Contains(fleetOut, "note: fleet: nodes=3") {
		t.Error("fleet campaign emitted no fleet note")
	}
	if !strings.Contains(fleetOut, "fleet events:") {
		t.Error("fleet campaign emitted no event-digest note")
	}
}

// TestPolicyStudyFleetMatchesLocal extends the fleet invariant to the
// policy study: a policy × configuration sweep sharded across a
// chaos-ridden fleet — every node hosting its own policy wrapper —
// renders the same measured rows as the local study.
func TestPolicyStudyFleetMatchesLocal(t *testing.T) {
	args := []string{"-mode", "policy", "-device", "p100", "-app", "spmv",
		"-n", "2097152", "-products", "40"}
	local, _, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("local policy study exit %d", code)
	}
	fleetOut, _, code := runCLI(t, append(args,
		"-executor", "fleet", "-nodes", "3", "-shardsize", "2",
		"-nodefaults", "seed=9,preempt=0.3,flaky=0.2,slow=0.3")...)
	if code != 0 {
		t.Fatalf("fleet policy study exit %d", code)
	}
	rows := func(out string) []string {
		var keep []string
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, "note:") {
				continue
			}
			keep = append(keep, line)
		}
		return keep
	}
	lRows, fRows := rows(local), rows(fleetOut)
	if len(lRows) != len(fRows) {
		t.Fatalf("row counts differ: local %d, fleet %d", len(lRows), len(fRows))
	}
	for i := range lRows {
		if lRows[i] != fRows[i] {
			t.Errorf("row %d differs:\nlocal: %s\nfleet: %s", i, lRows[i], fRows[i])
		}
	}
	if !strings.Contains(fleetOut, "note: fleet: nodes=3") {
		t.Error("fleet policy study emitted no fleet note")
	}
}
