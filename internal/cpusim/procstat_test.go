package cpusim

import (
	"math"
	"strings"
	"testing"

	"energyprop/internal/dense"
)

func TestStatSnapshotAdvanceAndRender(t *testing.T) {
	s := NewStatSnapshot(2)
	if err := s.Advance(10, []float64{1.0, 0.5}); err != nil {
		t.Fatal(err)
	}
	text := s.Render()
	if !strings.HasPrefix(text, "cpu  ") {
		t.Error("first line must be the aggregate cpu line")
	}
	if !strings.Contains(text, "cpu0 ") || !strings.Contains(text, "cpu1 ") {
		t.Error("per-core lines missing")
	}
	// Core 0: 10 s fully busy → 900 user + 100 system jiffies, 0 idle.
	if !strings.Contains(text, "cpu0 900 0 100 0 0 0 0") {
		t.Errorf("unexpected cpu0 line in:\n%s", text)
	}
}

func TestStatSnapshotAdvanceValidation(t *testing.T) {
	s := NewStatSnapshot(2)
	if err := s.Advance(1, []float64{0.5}); err == nil {
		t.Error("length mismatch: want error")
	}
	if err := s.Advance(1, []float64{0.5, 1.5}); err == nil {
		t.Error("utilization > 1: want error")
	}
}

func TestAvgUtilizationRoundTrip(t *testing.T) {
	s := NewStatSnapshot(4)
	if err := s.Advance(50, []float64{0.1, 0.1, 0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	before := s.Render()
	util := []float64{1.0, 0.75, 0.5, 0.25}
	if err := s.Advance(100, util); err != nil {
		t.Fatal(err)
	}
	after := s.Render()
	got, err := AvgUtilizationFromProcStat(before, after)
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 0.75 + 0.5 + 0.25) / 4
	if math.Abs(got-want) > 0.01 {
		t.Errorf("avg utilization = %v, want %v", got, want)
	}
}

func TestAvgUtilizationErrors(t *testing.T) {
	if _, err := AvgUtilizationFromProcStat("", ""); err == nil {
		t.Error("empty snapshots: want error")
	}
	if _, err := AvgUtilizationFromProcStat("cpu0 1 0 0 1 0 0 0", "garbage"); err == nil {
		t.Error("garbage second snapshot: want error")
	}
	s1 := "cpu0 100 0 0 100 0 0 0\n"
	s2 := "cpu0 100 0 0 100 0 0 0\n" // no elapsed time
	if _, err := AvgUtilizationFromProcStat(s1, s2); err == nil {
		t.Error("zero elapsed jiffies: want error")
	}
	// Mismatched core counts.
	s3 := "cpu0 1 0 0 1 0 0 0\ncpu1 1 0 0 1 0 0 0\n"
	s4 := "cpu0 2 0 0 2 0 0 0\n"
	if _, err := AvgUtilizationFromProcStat(s3, s4); err == nil {
		t.Error("core count mismatch: want error")
	}
}

func TestParseProcStatSkipsAggregate(t *testing.T) {
	text := "cpu  10 0 0 10 0 0 0\ncpu0 5 0 0 5 0 0 0\ncpu1 5 0 0 5 0 0 0\n"
	parsed, err := parseProcStat(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Errorf("parsed %d cores, want 2 (aggregate skipped)", len(parsed))
	}
}

func TestParseProcStatBadJiffies(t *testing.T) {
	if _, err := parseProcStat("cpu0 abc 0 0 1 0 0 0\n"); err == nil {
		t.Error("non-numeric jiffies: want error")
	}
	if _, err := parseProcStat("cpuX 1 0 0 1 0 0 0\n"); err == nil {
		t.Error("bad core index: want error")
	}
}

func TestProcStatPairMatchesSimulatorUtilization(t *testing.T) {
	// End-to-end: the utilization obtained by parsing the emulated
	// /proc/stat snapshots must agree with the simulator's own average —
	// the same cross-check the paper's methodology relies on.
	m := NewHaswell()
	r, err := m.RunGEMM(GEMMApp{
		N:       17408,
		Config:  dense.Config{Groups: 2, ThreadsPerGroup: 9, Partition: dense.PartitionContiguous},
		Variant: dense.VariantPacked,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, after, err := m.ProcStatPair(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AvgUtilizationFromProcStat(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-r.AvgUtil) > 0.03 {
		t.Errorf("procstat utilization %.3f vs simulator %.3f", got, r.AvgUtil)
	}
}

// parseProcStat is parseProcStatInto with a fresh map, for callers
// outside the hot path.
func parseProcStat(text string) (map[int]parsedStat, error) {
	out := map[int]parsedStat{}
	if err := parseProcStatInto(text, out); err != nil {
		return nil, err
	}
	return out, nil
}
