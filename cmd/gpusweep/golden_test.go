package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestSweepGoldenCSV locks the sweep's stdout (CSV rows and every
// trailing comment: fronts, "# failed:", "# faults:", "# fleet:",
// "# cache:"), its exit code and, where a row names one, the -json
// record byte-for-byte against committed goldens: the sweep output is
// a pure function of (device, workload) — and, with faults or a fleet,
// of the plan seeds — so any byte drift is either a deliberate format
// change (regenerate with -update) or a determinism regression.
func TestSweepGoldenCSV(t *testing.T) {
	const (
		p100 = "-device=p100"
		n    = "-n=1024"
		p2   = "-products=2"
	)
	for _, tc := range []struct {
		golden string
		args   []string
		code   int
		// json, when set, also pins the -json record against this golden.
		json string
	}{
		{golden: "sweep_p100_n1024_p2.golden.csv",
			args: []string{"-device", "p100", "-n", "1024", "-products", "2"}},
		{golden: "sweep_p100_n1024_p2_faults.golden.csv",
			args: []string{"-device", "p100", "-n", "1024", "-products", "2",
				"-faults", "seed=7,transient=0.6", "-retries", "4"}},
		{golden: "sweep_p100_n1024_p2_json.golden.csv", json: "sweep_p100_n1024_p2.golden.json",
			args: []string{p100, n, p2}},
		{golden: "sweep_p100_n1024_p2_json_faults.golden.csv", json: "sweep_p100_n1024_p2_faults.golden.json",
			args: []string{p100, n, p2, "-faults", "seed=7,transient=0.3", "-retries", "3"}},
		{golden: "sweep_p100_n1024_p2_all_failed.golden.csv", json: "sweep_p100_n1024_p2_all_failed.golden.json", code: 1,
			args: []string{p100, n, p2, "-faults", "seed=7,transient=1"}},
		{golden: "sweep_p100_n1024_p2_reps3.golden.csv",
			args: []string{p100, n, p2, "-reps", "3", "-cachestats"}},
		{golden: "sweep_p100_n1024_p2_fronts.golden.csv",
			args: []string{p100, n, p2, "-fronts"}},
		{golden: "sweep_haswell_n96.golden.csv",
			args: []string{"-device", "haswell", "-n", "96", "-products", "1", "-fronts"}},
		{golden: "sweep_hetero_n256_p3.golden.csv",
			args: []string{"-device", "hetero", "-n", "256", "-products", "3", "-fronts"}},
		{golden: "sweep_p100_n1024_p2_fleet_faults.golden.csv",
			args: []string{p100, n, p2, "-executor", "fleet", "-nodes", "4",
				"-nodefaults", "seed=9,preempt=0.3,flaky=0.2",
				"-faults", "seed=7,transient=0.3", "-retries", "3", "-cachestats"}},
		{golden: "sweep_p100_n1024_p2_fleet_preempt_reps2.golden.csv",
			args: []string{p100, n, p2, "-executor", "fleet", "-nodes", "4", "-shardsize", "4",
				"-nodefaults", "seed=9,preempt=0.3,flaky=0.2",
				"-faults", "seed=7,transient=0.3", "-retries", "3", "-reps", "2", "-cachestats"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			args := tc.args
			var jsonPath string
			if tc.json != "" {
				jsonPath = filepath.Join(t.TempDir(), "sweep.json")
				args = append(append([]string(nil), args...), "-json", jsonPath)
			}
			out, stderr, code := runCLI(t, args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d: %s", code, tc.code, stderr)
			}
			checkGolden(t, tc.golden, out)
			if tc.json != "" {
				rec, err := os.ReadFile(jsonPath)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, tc.json, string(rec))
			}
		})
	}
}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
