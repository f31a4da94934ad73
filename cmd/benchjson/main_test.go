package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: energyprop/internal/campaign
cpu: Intel Xeon
BenchmarkParallelSweep-8   	     100	  11840913 ns/op	  431922 B/op	    3742 allocs/op
BenchmarkSweepColdVsWarm/cold-8         	      39	  29402118 ns/op	  431922 B/op	    3742 allocs/op
BenchmarkSweepColdVsWarm/warm-overlap=100-8 	    6044	    197013 ns/op	   74469 B/op	     483 allocs/op
PASS
ok  	energyprop/internal/campaign	4.805s
pkg: energyprop
BenchmarkFFT2D256x4Threads 	     100	   1953125 ns/op
ok  	energyprop	0.4s
`

func runParse(t *testing.T, input string) (map[string]Result, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(strings.NewReader(input), &out, &errBuf)
	var res map[string]Result
	if out.Len() > 0 {
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("output is not JSON: %v\n%s", err, out.String())
		}
	}
	return res, errBuf.String(), code
}

func TestParsesQualifiedNamesAndMetrics(t *testing.T) {
	res, _, code := runParse(t, sample)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if len(res) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(res), res)
	}
	warm, ok := res["energyprop/internal/campaign.BenchmarkSweepColdVsWarm/warm-overlap=100"]
	if !ok {
		t.Fatalf("warm sub-benchmark missing (is the -8 proc suffix stripped?): %v", res)
	}
	if warm.NsPerOp != 197013 || warm.AllocsPerOp != 483 || warm.BytesPerOp != 74469 || warm.Iterations != 6044 {
		t.Errorf("warm = %+v, want the sample line's metrics", warm)
	}
	// A benchmark without -benchmem columns still lands, under its own
	// package qualifier, with a name that has no proc suffix to strip.
	fft, ok := res["energyprop.BenchmarkFFT2D256x4Threads"]
	if !ok {
		t.Fatalf("root-package benchmark missing: %v", res)
	}
	if fft.NsPerOp != 1953125 || fft.AllocsPerOp != 0 {
		t.Errorf("fft = %+v", fft)
	}
}

func TestProcSuffixOnlyStripsNumbers(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":               "BenchmarkFoo",
		"BenchmarkFoo/overlap=50-16":   "BenchmarkFoo/overlap=50",
		"BenchmarkSweepCold":           "BenchmarkSweepCold",
		"BenchmarkFoo/warm-overlap=50": "BenchmarkFoo/warm-overlap=50",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEmptyInputFails(t *testing.T) {
	_, errOut, code := runParse(t, "PASS\nok  \tenergyprop\t0.1s\n")
	if code != 1 {
		t.Errorf("exit %d, want 1 for input with no benchmarks", code)
	}
	if !strings.Contains(errOut, "no benchmark lines") {
		t.Errorf("stderr %q", errOut)
	}
}

// failWriter fails every write, simulating a closed pipe under the
// baseline redirect.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("broken pipe") }

func TestStdoutWriteFailureExitsNonZero(t *testing.T) {
	var errBuf bytes.Buffer
	code := run(strings.NewReader(sample), failWriter{}, &errBuf)
	if code != 1 {
		t.Errorf("exit %d, want 1 when the baseline write fails", code)
	}
	if !strings.Contains(errBuf.String(), "writing baseline") {
		t.Errorf("stderr %q", errBuf.String())
	}
}

func writeBaseline(t *testing.T, res map[string]Result) string {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePassesWithinBudget(t *testing.T) {
	budget := writeJSON(t, "budget.json", map[string]float64{
		"energyprop.BenchmarkDVFSComparison": 28500,
		"energyprop.BenchmarkZeroAlloc":      0,
	})
	cur := writeBaseline(t, map[string]Result{
		"energyprop.BenchmarkDVFSComparison": {Iterations: 1, NsPerOp: 5e7, AllocsPerOp: 16000},
		"energyprop.BenchmarkZeroAlloc":      {Iterations: 1, NsPerOp: 100, AllocsPerOp: 0},
	})
	var out, errBuf bytes.Buffer
	if code := runGate([]string{budget, cur}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "ok: energyprop.BenchmarkDVFSComparison 16000 allocs/op within budget 28500") {
		t.Errorf("gate report missing ok line:\n%s", out.String())
	}
}

func TestGateFailsOverBudgetAndMissing(t *testing.T) {
	budget := writeJSON(t, "budget.json", map[string]float64{
		"energyprop.BenchmarkHot":    100,
		"energyprop.BenchmarkAbsent": 10,
	})
	cur := writeBaseline(t, map[string]Result{
		"energyprop.BenchmarkHot": {Iterations: 1, NsPerOp: 100, AllocsPerOp: 250},
	})
	var out, errBuf bytes.Buffer
	if code := runGate([]string{budget, cur}, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "250 allocs/op exceeds budget 100") {
		t.Errorf("over-budget not reported: %q", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "BenchmarkAbsent missing") {
		t.Errorf("missing benchmark not reported: %q", errBuf.String())
	}
}

func TestGateUsageAndBadFiles(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := runGate([]string{"one.json"}, &out, &errBuf); code != 2 {
		t.Errorf("one arg: exit %d, want 2", code)
	}
	empty := writeJSON(t, "empty.json", map[string]float64{})
	cur := writeBaseline(t, map[string]Result{"pkg.BenchmarkA": {Iterations: 1, NsPerOp: 1}})
	errBuf.Reset()
	if code := runGate([]string{empty, cur}, &out, &errBuf); code != 1 {
		t.Errorf("empty budget: exit %d, want 1 (stderr %q)", code, errBuf.String())
	}
}

// TestZeroAllocFieldsAreEmitted: a zero-alloc benchmark's bytes and
// allocs must appear in the JSON (no omitempty) so budget gates can
// see the zero.
func TestZeroAllocFieldsAreEmitted(t *testing.T) {
	input := `pkg: energyprop
BenchmarkGemmBlockedTiled256-8 	       5	  12233229 ns/op	 128.57 MB/s	       0 B/op	       0 allocs/op
`
	var out, errBuf bytes.Buffer
	if code := run(strings.NewReader(input), &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errBuf.String())
	}
	text := out.String()
	if !strings.Contains(text, `"allocs_per_op": 0`) || !strings.Contains(text, `"bytes_per_op": 0`) {
		t.Errorf("zero alloc fields omitted from baseline:\n%s", text)
	}
}
