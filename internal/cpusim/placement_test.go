package cpusim

import (
	"math"
	"testing"

	"energyprop/internal/dense"
)

func TestPlacementString(t *testing.T) {
	if PlacementGroupRoundRobin.String() != "group-roundrobin" ||
		PlacementCompact.String() != "compact" ||
		PlacementScatter.String() != "scatter" {
		t.Error("placement names")
	}
	if Placement(9).String() != "Placement(9)" {
		t.Error("unknown placement name")
	}
}

func TestCompactFillsSocketZeroFirst(t *testing.T) {
	m := NewHaswell()
	placement, err := m.threadPlacement(dense.Config{Groups: 2, ThreadsPerGroup: 6}, PlacementCompact)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range placement {
		if m.socketOf(l) != 0 {
			t.Fatalf("compact placement put a thread on socket %d with socket 0 free", m.socketOf(l))
		}
	}
	// Compact with 30 threads must spill to socket 1 only after socket 0's
	// 24 logical cores are exhausted.
	placement, err = m.threadPlacement(dense.Config{Groups: 1, ThreadsPerGroup: 30}, PlacementCompact)
	if err != nil {
		t.Fatal(err)
	}
	onSocket1 := 0
	for _, l := range placement {
		if m.socketOf(l) == 1 {
			onSocket1++
		}
	}
	if onSocket1 != 6 {
		t.Errorf("30 compact threads: %d on socket 1, want 6", onSocket1)
	}
}

func TestScatterAlternatesSockets(t *testing.T) {
	m := NewHaswell()
	placement, err := m.threadPlacement(dense.Config{Groups: 1, ThreadsPerGroup: 8}, PlacementScatter)
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for _, l := range placement {
		counts[m.socketOf(l)]++
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Errorf("scatter split %v, want 4/4", counts)
	}
}

func TestPlacementMovesPowerAtSameUtilization(t *testing.T) {
	// The same (p=1, t=12) configuration under compact vs scatter: same
	// average utilization, different uncore count, different power —
	// another realization of the paper's A/B points.
	m := NewHaswell()
	app := GEMMApp{
		N:      17408,
		Config: dense.Config{Groups: 1, ThreadsPerGroup: 12},
	}
	compact := app
	compact.Placement = PlacementCompact
	scatter := app
	scatter.Placement = PlacementScatter
	rc, err := m.RunGEMM(compact, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.RunGEMM(scatter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rc.AvgUtil-rs.AvgUtil) > 0.02 {
		t.Fatalf("utilizations should match: %.3f vs %.3f", rc.AvgUtil, rs.AvgUtil)
	}
	if rs.Power.UncoreW <= rc.Power.UncoreW {
		t.Error("scatter wakes both sockets: uncore power must rise")
	}
	// Scatter also doubles the available bandwidth: 12 memory-hungry
	// threads run faster.
	if rs.GFLOPs <= rc.GFLOPs {
		t.Error("scatter should be at least as fast for a bandwidth-hungry run")
	}
}

func TestDefaultPlacementIsRoundRobin(t *testing.T) {
	m := NewHaswell()
	app := GEMMApp{N: 8192, Config: dense.Config{Groups: 2, ThreadsPerGroup: 4}}
	a, err := m.RunGEMM(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	app.Placement = PlacementGroupRoundRobin
	b, err := m.RunGEMM(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.DynEnergyJ != b.DynEnergyJ {
		t.Error("zero value must equal the explicit round-robin policy")
	}
}
