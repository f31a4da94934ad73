package cpusim

import (
	"fmt"
	"math"

	"energyprop/internal/dense"
)

// DVFS support: the dominant *system-level* decision variable of the
// paper's related work (category one in its Section II). Scaling the core
// frequency trades compute throughput for roughly cubic core-power
// savings while leaving memory bandwidth untouched — which is why DVFS
// and the paper's *application-level* variables (threadgroup shape,
// partition) explore different parts of the time×energy plane and can be
// combined.

// NominalGHz is the Haswell E5-2670v3 nominal (all-core turbo) clock the
// calibration's per-thread throughput corresponds to.
const NominalGHz = 2.3

// FrequencyLevels returns the discrete DVFS operating points of the
// simulated Haswell, in GHz.
func FrequencyLevels() []float64 {
	return []float64{1.2, 1.4, 1.6, 1.8, 2.0, 2.2, NominalGHz}
}

// RunGEMMAtFrequency simulates one Fig 4 configuration with every core
// pinned at the given frequency. RunGEMM is equivalent to
// RunGEMMAtFrequency at NominalGHz.
//
// Model: per-thread compute throughput scales linearly with frequency;
// memory-bound phases do not speed up with frequency (bandwidth is a
// board property); core dynamic power scales with f·V² ≈ f³ (voltage
// tracks frequency); uncore power scales partially; dTLB power follows
// the page-walk rate, which tracks the achieved traffic rate.
//
// Like RunGEMM it fills and returns out (nil allocates). The frequency
// scaling threads the scaled compute rate through the shared engine
// instead of copying the whole Machine with a scaled calibration, so a
// DVFS sweep is O(levels) cheap reruns over the cached placement and
// decomposition.
func (m *Machine) RunGEMMAtFrequency(app GEMMApp, freqGHz float64, out *Result) (*Result, error) {
	if freqGHz < 0.8 || freqGHz > 3.5 {
		return nil, fmt.Errorf("cpusim: frequency %.2f GHz outside the plausible 0.8..3.5 range", freqGHz)
	}
	rel := freqGHz / NominalGHz
	if out == nil {
		out = &Result{}
	}
	if err := m.runGEMMScaled(app, rel, out); err != nil {
		return nil, err
	}

	// Rescale the power components for voltage: core power already
	// reflects utilization u at the scaled speed, but the per-core
	// coefficient a itself shrinks as f·V² ≈ rel³ relative to nominal
	// (the engine used the nominal CorePowerW).
	coreScale := rel * rel * rel
	uncoreScale := 0.4 + 0.6*rel
	pw := out.Power
	pw.CoreW *= coreScale
	pw.UncoreW *= uncoreScale
	// dTLB power already tracks the achieved page rate via the scaled
	// execution time; apply the frequency's linear share for the walker
	// circuitry itself.
	pw.DTLBW *= math.Min(1, 0.5+0.5*rel)

	out.Power = pw
	out.DynPowerW = pw.TotalW()
	out.DynEnergyJ = out.DynPowerW * out.Seconds
	return out, nil
}

// DVFSSweep runs one configuration across every frequency level and
// returns the results in level order — the system-level knob's view of
// the time×energy plane.
func (m *Machine) DVFSSweep(app GEMMApp) ([]*Result, []float64, error) {
	levels := FrequencyLevels()
	out := make([]*Result, 0, len(levels))
	for _, f := range levels {
		r, err := m.RunGEMMAtFrequency(app, f, nil)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, r)
	}
	return out, levels, nil
}

// BestConfigAtEachFrequency explores the combined space: for every
// frequency level, the best-performing configuration of the enumeration,
// reported as (frequency, config, result) triples.
type FreqConfigResult struct {
	FreqGHz float64
	Config  dense.Config
	Result  *Result
}

// CombinedSweep runs every (frequency, configuration) pair for the given
// matrix size and variant. The caller typically feeds the results to the
// pareto package; the combined front dominates both single-knob fronts.
func (m *Machine) CombinedSweep(n int, v dense.Variant) ([]FreqConfigResult, error) {
	levels := FrequencyLevels()
	cfgs := m.EnumerateConfigs()
	out := make([]FreqConfigResult, 0, len(levels)*len(cfgs))
	for _, freq := range levels {
		for _, cfg := range cfgs {
			r, err := m.RunGEMMAtFrequency(GEMMApp{N: n, Config: cfg, Variant: v}, freq, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, FreqConfigResult{FreqGHz: freq, Config: cfg, Result: r})
		}
	}
	return out, nil
}
