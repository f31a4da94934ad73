package cpusim

import (
	"math"
	"testing"
	"testing/quick"

	"energyprop/internal/dense"
	"energyprop/internal/hw"
	"energyprop/internal/meter"
)

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(nil); err == nil {
		t.Error("nil spec: want error")
	}
	bad := hw.Haswell()
	bad.MemBandwidthGBs = 0
	if _, err := NewMachine(bad); err == nil {
		t.Error("zero bandwidth: want error")
	}
}

func TestRunGEMMValidation(t *testing.T) {
	m := NewHaswell()
	if _, err := m.RunGEMM(GEMMApp{N: 0, Config: dense.Config{Groups: 1, ThreadsPerGroup: 1}}, nil); err == nil {
		t.Error("N=0: want error")
	}
	if _, err := m.RunGEMM(GEMMApp{N: 1024, Config: dense.Config{Groups: 1, ThreadsPerGroup: 49}}, nil); err == nil {
		t.Error("more threads than logical cores: want error")
	}
	if _, err := m.RunGEMM(GEMMApp{N: 1024, Config: dense.Config{Groups: 0, ThreadsPerGroup: 1}}, nil); err == nil {
		t.Error("zero groups: want error")
	}
}

func TestThreadPlacementDisjointAndComplete(t *testing.T) {
	m := NewHaswell()
	for _, cfg := range []dense.Config{
		{Groups: 1, ThreadsPerGroup: 1},
		{Groups: 2, ThreadsPerGroup: 12},
		{Groups: 4, ThreadsPerGroup: 12},
		{Groups: 8, ThreadsPerGroup: 6},
		{Groups: 3, ThreadsPerGroup: 7},
	} {
		placement, err := m.threadPlacement(cfg, PlacementGroupRoundRobin)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if len(placement) != cfg.Threads() {
			t.Fatalf("%v: placed %d threads, want %d", cfg, len(placement), cfg.Threads())
		}
		seen := map[int]bool{}
		for _, l := range placement {
			if l < 0 || l >= m.Spec.LogicalCores() {
				t.Fatalf("%v: logical core %d out of range", cfg, l)
			}
			if seen[l] {
				t.Fatalf("%v: logical core %d used twice", cfg, l)
			}
			seen[l] = true
		}
	}
}

func TestPlacementPrefersPhysicalCores(t *testing.T) {
	m := NewHaswell()
	// 24 threads over 2 groups must land on the 24 physical cores (no
	// hyperthread siblings) since groups alternate sockets.
	placement, err := m.threadPlacement(dense.Config{Groups: 2, ThreadsPerGroup: 12}, PlacementGroupRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range placement {
		if l >= m.Spec.PhysicalCores() {
			t.Errorf("thread on hyperthread sibling %d while physical cores free", l)
		}
	}
}

func TestPerformanceLinearAtLowUtilization(t *testing.T) {
	// Fig 4: performance is linear in utilization before the plateau.
	m := NewHaswell()
	for _, k := range []int{1, 2, 4, 8} {
		r, err := m.RunGEMM(GEMMApp{
			N:       17408,
			Config:  dense.Config{Groups: 2, ThreadsPerGroup: k, Partition: dense.PartitionContiguous},
			Variant: dense.VariantPacked,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		threads := float64(2 * k)
		wantGF := threads * 30
		if math.Abs(r.GFLOPs-wantGF)/wantGF > 0.12 {
			t.Errorf("k=%d threads: %.0f GFLOPs, want ~%.0f (linear region)", 2*k, r.GFLOPs, wantGF)
		}
		wantU := threads / 48
		if math.Abs(r.AvgUtil-wantU) > 0.02 {
			t.Errorf("k=%d threads: avg util %.3f, want ~%.3f", 2*k, r.AvgUtil, wantU)
		}
	}
}

func TestPerformancePlateausAt700(t *testing.T) {
	// Fig 4: the performance flattens near 700 GFLOPs because the memory
	// bandwidth saturates; utilizing the CPU further does not help.
	m := NewHaswell()
	peak := 0.0
	for _, cfg := range m.EnumerateConfigs() {
		r, err := m.RunGEMM(GEMMApp{N: 17408, Config: cfg, Variant: dense.VariantPacked}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.GFLOPs > peak {
			peak = r.GFLOPs
		}
	}
	if peak < 650 || peak > 730 {
		t.Errorf("peak performance %.0f GFLOPs, want ~700 (paper's plateau)", peak)
	}
	// A 48-thread run must not beat a 24-thread two-socket run by much.
	r24, err := m.RunGEMM(GEMMApp{N: 17408,
		Config: dense.Config{Groups: 2, ThreadsPerGroup: 12}, Variant: dense.VariantPacked}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r48, err := m.RunGEMM(GEMMApp{N: 17408,
		Config: dense.Config{Groups: 2, ThreadsPerGroup: 24}, Variant: dense.VariantPacked}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r48.GFLOPs > r24.GFLOPs*1.1 {
		t.Errorf("48 threads %.0f GF vs 24 threads %.0f GF: plateau violated", r48.GFLOPs, r24.GFLOPs)
	}
	if r48.AvgUtil <= r24.AvgUtil {
		t.Error("more threads must raise average utilization even on the plateau")
	}
}

func TestNonFunctionalPowerAtSameUtilization(t *testing.T) {
	// Fig 4's headline: configurations with (nearly) the same average CPU
	// utilization can draw very different dynamic power — dynamic power is
	// not a function of utilization. Compare 24 threads on one socket
	// (with hyperthreads) against 24 threads across both sockets.
	m := NewHaswell()
	oneSocket, err := m.RunGEMM(GEMMApp{N: 17408,
		Config: dense.Config{Groups: 1, ThreadsPerGroup: 24}, Variant: dense.VariantPacked}, nil)
	if err != nil {
		t.Fatal(err)
	}
	twoSockets, err := m.RunGEMM(GEMMApp{N: 17408,
		Config: dense.Config{Groups: 2, ThreadsPerGroup: 12}, Variant: dense.VariantPacked}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oneSocket.AvgUtil-twoSockets.AvgUtil) > 0.03 {
		t.Fatalf("utilizations differ too much for the comparison: %.3f vs %.3f",
			oneSocket.AvgUtil, twoSockets.AvgUtil)
	}
	if twoSockets.DynPowerW < oneSocket.DynPowerW*1.15 {
		t.Errorf("same avg utilization should admit different powers: %.1f W vs %.1f W",
			oneSocket.DynPowerW, twoSockets.DynPowerW)
	}
	if twoSockets.GFLOPs < oneSocket.GFLOPs*1.5 {
		t.Errorf("two-socket config should be much faster: %.0f vs %.0f GFLOPs",
			twoSockets.GFLOPs, oneSocket.GFLOPs)
	}
}

func TestWeakEPViolatedOnCPU(t *testing.T) {
	// All configurations solve the same workload with equal distribution,
	// yet dynamic energy varies widely (weak EP breached).
	m := NewHaswell()
	minE, maxE := math.Inf(1), math.Inf(-1)
	for _, cfg := range m.EnumerateConfigs() {
		if cfg.Threads() < 4 {
			continue // compare configurations of similar scale
		}
		r, err := m.RunGEMM(GEMMApp{N: 17408, Config: cfg, Variant: dense.VariantPacked}, nil)
		if err != nil {
			t.Fatal(err)
		}
		minE = math.Min(minE, r.DynEnergyJ)
		maxE = math.Max(maxE, r.DynEnergyJ)
	}
	if (maxE-minE)/minE < 0.20 {
		t.Errorf("dynamic energy spread %.1f%%, want > 20%% (weak EP violation)", 100*(maxE-minE)/minE)
	}
}

func TestVariantAndPartitionChangePower(t *testing.T) {
	m := NewHaswell()
	base := GEMMApp{N: 17408, Config: dense.Config{Groups: 2, ThreadsPerGroup: 12}}
	packed := base
	packed.Variant = dense.VariantPacked
	tiled := base
	tiled.Variant = dense.VariantTiled
	rp, err := m.RunGEMM(packed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := m.RunGEMM(tiled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Power.DTLBW <= rp.Power.DTLBW {
		t.Error("tiled variant should have higher dTLB activity than packed")
	}
	cyc := packed
	cyc.Config.Partition = dense.PartitionCyclic
	rc, err := m.RunGEMM(cyc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Power.DTLBW <= rp.Power.DTLBW {
		t.Error("cyclic partition should have higher dTLB activity than contiguous")
	}
}

func TestResultInternalConsistency(t *testing.T) {
	m := NewHaswell()
	check := func(pRaw, tRaw uint8, cyclic, tiled bool) bool {
		p := int(pRaw)%8 + 1
		th := int(tRaw)%6 + 1
		if p*th > m.Spec.LogicalCores() {
			return true
		}
		cfg := dense.Config{Groups: p, ThreadsPerGroup: th}
		if cyclic {
			cfg.Partition = dense.PartitionCyclic
		}
		v := dense.VariantPacked
		if tiled {
			v = dense.VariantTiled
		}
		r, err := m.RunGEMM(GEMMApp{N: 8192, Config: cfg, Variant: v}, nil)
		if err != nil {
			return false
		}
		if r.Seconds <= 0 || r.GFLOPs <= 0 || r.DynPowerW <= 0 {
			return false
		}
		if math.Abs(r.DynEnergyJ-r.DynPowerW*r.Seconds) > 1e-6*r.DynEnergyJ {
			return false
		}
		if math.Abs(r.Power.TotalW()-r.DynPowerW) > 1e-9 {
			return false
		}
		// Utilizations in [0,1]; exactly p·t cores busy; slowest thread
		// has utilization 1.
		busy, maxU := 0, 0.0
		for _, u := range r.CoreUtil {
			if u < 0 || u > 1+1e-12 {
				return false
			}
			if u > 0 {
				busy++
			}
			maxU = math.Max(maxU, u)
		}
		if busy != p*th || math.Abs(maxU-1) > 1e-12 {
			return false
		}
		// Power within the node's plausible envelope.
		return r.DynPowerW < 250
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRunGEMMDeterministic(t *testing.T) {
	m := NewHaswell()
	app := GEMMApp{N: 17408, Config: dense.Config{Groups: 4, ThreadsPerGroup: 6}, Variant: dense.VariantTiled}
	a, err := m.RunGEMM(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RunGEMM(app, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.DynEnergyJ != b.DynEnergyJ || a.Seconds != b.Seconds {
		t.Error("model must be deterministic")
	}
}

func TestEnumerateConfigsShape(t *testing.T) {
	m := NewHaswell()
	configs := m.EnumerateConfigs()
	if len(configs) < 100 {
		t.Errorf("config space has %d entries, want a rich sweep (>= 100)", len(configs))
	}
	for _, cfg := range configs {
		if cfg.Threads() > m.Spec.LogicalCores() {
			t.Fatalf("config %v exceeds logical cores", cfg)
		}
	}
}

func TestMeterAdapter(t *testing.T) {
	m := NewHaswell()
	r, err := m.RunGEMM(GEMMApp{N: 8192, Config: dense.Config{Groups: 2, ThreadsPerGroup: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt := meter.NewMeter(m.Spec.IdlePowerW, 1)
	mt.NoiseFrac = 0
	rep, err := mt.MeasureRun(r.Run(m.Spec.IdlePowerW))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.DynamicEnergyJ-r.DynEnergyJ) > 1e-6*r.DynEnergyJ {
		t.Errorf("metered dynamic energy %v != model %v", rep.DynamicEnergyJ, r.DynEnergyJ)
	}
}

// Run adapts the result to a meter.Run for the measurement pipeline.
func (r *Result) Run(idlePowerW float64) meter.Run {
	return meter.ConstantRun{Seconds: r.Seconds, Watts: idlePowerW + r.DynPowerW}
}
