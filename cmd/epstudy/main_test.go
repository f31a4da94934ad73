package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestListExperiments(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig1", "fig8", "theory", "scheduler"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestNoArgsShowsHelp(t *testing.T) {
	out, _, code := runCLI(t)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "run one with: epstudy -run <id>") {
		t.Error("help hint missing")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, _, code := runCLI(t, "-run", "theory")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "E1_balanced") || !strings.Contains(out, "# paper:") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunCSVMode(t *testing.T) {
	out, _, code := runCLI(t, "-run", "table1", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "field,value") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	_, errOut, code := runCLI(t, "-run", "nope")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "unknown id") {
		t.Errorf("error message missing: %q", errOut)
	}
}

func TestDeviceCampaignDeterministic(t *testing.T) {
	run := func() string {
		out, _, code := runCLI(t, "-device", "haswell", "-n", "48", "-products", "1", "-seed", "7")
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
		return out
	}
	first := run()
	if !strings.Contains(first, "Measured campaign on") || !strings.Contains(first, "contiguous/p=") {
		t.Errorf("campaign table missing:\n%s", first)
	}
	if second := run(); first != second {
		t.Error("repeated -device run with the same seed differs")
	}
}

func TestDeviceCampaignCSV(t *testing.T) {
	out, _, code := runCLI(t, "-device", "haswell", "-n", "48", "-products", "1", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "config,key,seconds,measured_j,ci_halfwidth_j,runs") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestDeviceCampaignUnknownDevice(t *testing.T) {
	_, errOut, code := runCLI(t, "-device", "gtx480")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "unknown device") || !strings.Contains(errOut, "haswell") {
		t.Errorf("stderr %q should list known devices", errOut)
	}
}

func TestBadFlagFails(t *testing.T) {
	_, _, code := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestMarkdownToStdout(t *testing.T) {
	out, _, code := runCLI(t, "-run", "theory", "-markdown", "-", "-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "# energyprop experiment report") {
		t.Error("markdown banner missing")
	}
}

func TestHTMLToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.html")
	_, _, code := runCLI(t, "-run", "theory", "-html", path, "-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<!DOCTYPE html>") {
		t.Error("not an HTML document")
	}
}

// TestSVGDir: -svgdir writes every figure and logs the writes in the
// figures' fixed order, so two runs print identical output.
func TestSVGDir(t *testing.T) {
	dir := t.TempDir()
	out, _, code := runCLI(t, "-svgdir", dir, "-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var wrote []string
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "wrote "); ok {
			wrote = append(wrote, name)
		}
	}
	var want []string
	for _, name := range []string{"fig1.svg", "fig2.svg", "fig4.svg", "fig6.svg", "fig7.svg", "fig8.svg"} {
		want = append(want, filepath.Join(dir, name))
	}
	if !reflect.DeepEqual(wrote, want) {
		t.Errorf("write log %q, want %q", wrote, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig8.svg")); err != nil {
		t.Errorf("fig8.svg not written: %v", err)
	}
	if again, _, _ := runCLI(t, "-svgdir", dir, "-quick"); again != out {
		t.Errorf("second run printed different output:\n%s\nvs\n%s", again, out)
	}
}

// TestDeviceCampaignReps: a -reps rerun is served from the measurement
// cache — the table is identical to a single run apart from the cache
// note, which must show one miss per configuration and warm hits for
// every repeat.
func TestDeviceCampaignReps(t *testing.T) {
	single, _, code := runCLI(t, "-device", "haswell", "-n", "48", "-products", "1", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	reps, _, code := runCLI(t, "-device", "haswell", "-n", "48", "-products", "1", "-seed", "7",
		"-reps", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var kept []string
	var note string
	for _, line := range strings.Split(reps, "\n") {
		if strings.Contains(line, "cache over") {
			note = strings.TrimSpace(line)
			continue
		}
		kept = append(kept, line)
	}
	if got := strings.Join(kept, "\n"); got != single {
		t.Errorf("-reps 3 table differs from a single campaign beyond the cache note:\n%s\nvs\n%s", got, single)
	}
	if note == "" {
		t.Fatalf("no cache note in -reps output:\n%s", reps)
	}
	if !strings.Contains(note, "hits=") || !strings.Contains(note, "misses=") {
		t.Errorf("cache note %q missing counters", note)
	}
	if strings.Contains(single, "cache over") {
		t.Error("single-rep output should not carry a cache note")
	}
}

// TestBadReps: a non-positive -reps is a usage error.
func TestBadReps(t *testing.T) {
	_, errOut, code := runCLI(t, "-device", "haswell", "-reps", "-1")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "epstudy: -reps must be >= 1 (got -1)\n"; errOut != want {
		t.Errorf("stderr %q, want %q", errOut, want)
	}
}
