package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energyprop/internal/store"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(context.Background(), args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestSweepCSV(t *testing.T) {
	out, _, code := runCLI(t, "-device", "p100", "-n", "4096", "-products", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "config,seconds,dyn_power_w,dyn_energy_j" {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) < 30 {
		t.Errorf("%d rows, want a full sweep", len(lines)-1)
	}
	if !strings.HasPrefix(lines[1], "bs=") {
		t.Errorf("first row %q should start with a GPU config key", lines[1])
	}
}

func TestSweepCPUDevice(t *testing.T) {
	out, _, code := runCLI(t, "-device", "haswell", "-n", "96", "-products", "1", "-fronts")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "config,seconds,dyn_power_w,dyn_energy_j" {
		t.Errorf("header %q", lines[0])
	}
	if !strings.Contains(out, "contiguous/p=") || !strings.Contains(out, "cyclic/p=") {
		t.Error("CPU decomposition keys missing from CSV")
	}
	if !strings.Contains(out, "# rank 0 (") {
		t.Error("front analysis missing")
	}
}

func TestSweepHeteroDevice(t *testing.T) {
	out, _, code := runCLI(t, "-device", "hetero", "-n", "256", "-products", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "haswell=") || !strings.Contains(out, "p100=") {
		t.Errorf("hetero distribution keys missing:\n%s", out)
	}
	// Compositions of 3 units over 3 processors: C(5,2) = 10 rows.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 11 {
		t.Errorf("%d lines, want header + 10 distributions", len(lines))
	}
}

func TestSweepFFTApp(t *testing.T) {
	out, _, code := runCLI(t, "-device", "haswell", "-app", "fft", "-n", "512", "-products", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "contiguous/p=") {
		t.Errorf("FFT sweep rows missing:\n%s", out)
	}
}

func TestSweepFronts(t *testing.T) {
	out, _, code := runCLI(t, "-device", "k40c", "-n", "10240", "-products", "8", "-fronts")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "# rank 0 (1 points):") {
		t.Errorf("K40c rank-0 should be a single point:\n%s", out)
	}
	if !strings.Contains(out, "tradeoff") {
		t.Error("trade-off lines missing")
	}
}

func TestSweepJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	_, _, code := runCLI(t, "-device", "p100", "-n", "4096", "-products", "2", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, err := store.LoadCampaign(f)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Device != "NVIDIA P100 PCIe" || rec.Kind != "gpu" || rec.Workload.N != 4096 {
		t.Errorf("record %+v", rec)
	}
}

func TestListDevices(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{"k40c", "p100", "haswell", "legacy-xeon", "hetero"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

func TestUnknownDevice(t *testing.T) {
	_, errOut, code := runCLI(t, "-device", "gtx480")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown device") {
		t.Errorf("stderr %q", errOut)
	}
	// The error enumerates the registered devices.
	if !strings.Contains(errOut, "haswell") {
		t.Errorf("stderr %q does not list known devices", errOut)
	}
}

func TestBadWorkload(t *testing.T) {
	_, _, code := runCLI(t, "-n", "0")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// TestSweepRepsWarmCache: -reps reruns must be answered by the point
// cache (one miss per config, the rest hits), and the CSV body must be
// identical to a single-rep sweep — the cache is invisible in the data.
func TestSweepRepsWarmCache(t *testing.T) {
	single, _, code := runCLI(t, "-device", "p100", "-n", "4096", "-products", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	reps, _, code := runCLI(t, "-device", "p100", "-n", "4096", "-products", "2",
		"-reps", "3", "-cachestats")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var data, stats []string
	for _, line := range strings.Split(strings.TrimSpace(reps), "\n") {
		if strings.HasPrefix(line, "# cache:") {
			stats = append(stats, line)
		} else {
			data = append(data, line)
		}
	}
	if got := strings.Join(data, "\n") + "\n"; got != single {
		t.Errorf("-reps 3 CSV body differs from a single sweep:\n%s\nvs\n%s", got, single)
	}
	if len(stats) != 1 {
		t.Fatalf("want exactly one cache-stats comment, got %d:\n%s", len(stats), reps)
	}
	configRows := len(data) - 1 // minus the header
	want := fmt.Sprintf("# cache: reps=3 hits=%d misses=%d dedups=0 evictions=0 size=%d",
		2*configRows, configRows, configRows)
	if stats[0] != want {
		t.Errorf("cache stats = %q, want %q", stats[0], want)
	}
}

// TestSweepBadReps: a non-positive -reps is a usage error.
func TestSweepBadReps(t *testing.T) {
	_, errOut, code := runCLI(t, "-device", "p100", "-reps", "0")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := "gpusweep: -reps must be >= 1 (got 0)\n"; errOut != want {
		t.Errorf("stderr %q, want %q", errOut, want)
	}
}
