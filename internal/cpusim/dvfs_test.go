package cpusim

import (
	"testing"

	"energyprop/internal/dense"
)

func dvfsApp() GEMMApp {
	return GEMMApp{
		N:       8192,
		Config:  dense.Config{Groups: 2, ThreadsPerGroup: 4, Partition: dense.PartitionContiguous},
		Variant: dense.VariantPacked,
	}
}

func TestRunGEMMAtNominalMatchesRunGEMM(t *testing.T) {
	m := NewHaswell()
	a, err := m.RunGEMM(dvfsApp(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RunGEMMAtFrequency(dvfsApp(), NominalGHz, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Errorf("nominal frequency time %v != RunGEMM %v", b.Seconds, a.Seconds)
	}
	if diff := a.DynPowerW - b.DynPowerW; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("nominal frequency power %v != RunGEMM %v", b.DynPowerW, a.DynPowerW)
	}
}

func TestFrequencyValidation(t *testing.T) {
	m := NewHaswell()
	if _, err := m.RunGEMMAtFrequency(dvfsApp(), 0.5, nil); err == nil {
		t.Error("too-low frequency: want error")
	}
	if _, err := m.RunGEMMAtFrequency(dvfsApp(), 4.0, nil); err == nil {
		t.Error("too-high frequency: want error")
	}
}

func TestLowerFrequencySlowerButCoresCheaper(t *testing.T) {
	// For a compute-bound run (few threads), halving the frequency must
	// roughly double the time and cut core power superlinearly.
	m := NewHaswell()
	app := dvfsApp()
	fast, err := m.RunGEMMAtFrequency(app, 2.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m.RunGEMMAtFrequency(app, 1.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Seconds <= fast.Seconds {
		t.Error("lower frequency must be slower for a compute-bound run")
	}
	if slow.Power.CoreW >= fast.Power.CoreW {
		t.Error("lower frequency must draw less core power")
	}
	// Cubic scaling: core power ratio well below the time ratio's inverse.
	powerRatio := slow.Power.CoreW / fast.Power.CoreW
	rel := 1.2 / 2.3
	if powerRatio > rel*rel {
		t.Errorf("core power ratio %.3f, want < rel² = %.3f (f·V² scaling)", powerRatio, rel*rel)
	}
}

func TestMemoryBoundRunInsensitiveToFrequency(t *testing.T) {
	// 48 threads at N=17408 are bandwidth-bound: frequency barely changes
	// time but does cut energy — the classic DVFS sweet spot.
	m := NewHaswell()
	app := GEMMApp{
		N:       17408,
		Config:  dense.Config{Groups: 2, ThreadsPerGroup: 24},
		Variant: dense.VariantPacked,
	}
	fast, err := m.RunGEMMAtFrequency(app, 2.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m.RunGEMMAtFrequency(app, 1.8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Seconds > fast.Seconds*1.10 {
		t.Errorf("memory-bound run slowed by %.1f%%, want < 10%%",
			100*(slow.Seconds/fast.Seconds-1))
	}
	if slow.DynEnergyJ >= fast.DynEnergyJ {
		t.Error("lower frequency must save energy on a memory-bound run")
	}
}

func TestDVFSSweep(t *testing.T) {
	m := NewHaswell()
	results, levels, err := m.DVFSSweep(dvfsApp())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(levels) || len(results) != len(FrequencyLevels()) {
		t.Fatalf("sweep size mismatch: %d results, %d levels", len(results), len(levels))
	}
	// Time decreases (weakly) with frequency for a compute-bound app.
	for i := 1; i < len(results); i++ {
		if results[i].Seconds > results[i-1].Seconds {
			t.Errorf("time should not increase with frequency: level %v", levels[i])
		}
	}
}

func TestCombinedSweepDominatesSingleKnob(t *testing.T) {
	// The combined (frequency × configuration) front must contain a point
	// at least as good as the best frequency-only point on both axes.
	m := NewHaswell()
	const n = 8192
	combined, err := m.CombinedSweep(n, dense.VariantPacked)
	if err != nil {
		t.Fatal(err)
	}
	if len(combined) < 100 {
		t.Fatalf("combined sweep has %d points, want a rich space", len(combined))
	}
	freqOnly, _, err := m.DVFSSweep(GEMMApp{
		N:       n,
		Config:  dense.Config{Groups: 2, ThreadsPerGroup: 12},
		Variant: dense.VariantPacked,
	})
	if err != nil {
		t.Fatal(err)
	}
	bestFreqTime := freqOnly[0].Seconds
	for _, r := range freqOnly {
		if r.Seconds < bestFreqTime {
			bestFreqTime = r.Seconds
		}
	}
	bestCombinedTime := combined[0].Result.Seconds
	for _, fc := range combined {
		if fc.Result.Seconds < bestCombinedTime {
			bestCombinedTime = fc.Result.Seconds
		}
	}
	if bestCombinedTime > bestFreqTime {
		t.Errorf("combined best time %v worse than frequency-only %v", bestCombinedTime, bestFreqTime)
	}
}
