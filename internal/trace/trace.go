// Package trace analyzes time-varying power traces: phase segmentation
// (ramp / steady state / tail), per-phase energy attribution, and
// steady-state power estimation. It reproduces the processing step real
// meter tooling (HCLWattsUp) applies to raw WattsUp samples before a
// single "dynamic energy" number is reported, and it is what turns the
// block scheduler's traces (gpusim.RunMatMulTraced) into the quantities the
// paper's figures use.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sample is one (time, power) observation.
type Sample struct {
	Seconds float64
	PowerW  float64
}

// Trace is a time-ordered series of power samples.
type Trace struct {
	Samples []Sample
}

// New builds a trace from parallel slices.
func New(seconds, power []float64) (*Trace, error) {
	if len(seconds) != len(power) {
		return nil, errors.New("trace: time and power lengths differ")
	}
	if len(seconds) < 2 {
		return nil, errors.New("trace: need at least 2 samples")
	}
	tr := &Trace{Samples: make([]Sample, len(seconds))}
	for i := range seconds {
		if i > 0 && seconds[i] < seconds[i-1] {
			return nil, fmt.Errorf("trace: time goes backwards at sample %d", i)
		}
		if math.IsNaN(power[i]) || math.IsInf(power[i], 0) {
			return nil, fmt.Errorf("trace: non-finite power at sample %d", i)
		}
		tr.Samples[i] = Sample{seconds[i], power[i]}
	}
	return tr, nil
}

// Duration returns the trace's time span.
func (t *Trace) Duration() float64 {
	return t.Samples[len(t.Samples)-1].Seconds - t.Samples[0].Seconds
}

// Energy integrates the trace with the trapezoidal rule.
//
//lint:root hotalloc trace integration runs once per measured point inside the stats loop
func (t *Trace) Energy() float64 {
	e := 0.0
	for i := 1; i < len(t.Samples); i++ {
		dt := t.Samples[i].Seconds - t.Samples[i-1].Seconds
		e += dt * (t.Samples[i].PowerW + t.Samples[i-1].PowerW) / 2
	}
	return e
}

// SteadyPower estimates the steady-state power level as the
// duration-weighted median of the trace's power — robust to ramps, tails,
// and spikes regardless of how unevenly the samples are spaced (step
// traces put many points into short transients and few into the long
// steady phase).
func (t *Trace) SteadyPower() float64 {
	type seg struct{ p, w float64 }
	segs := make([]seg, 0, len(t.Samples)-1)
	totalW := 0.0
	for i := 1; i < len(t.Samples); i++ {
		dt := t.Samples[i].Seconds - t.Samples[i-1].Seconds
		if dt <= 0 {
			continue
		}
		segs = append(segs, seg{(t.Samples[i].PowerW + t.Samples[i-1].PowerW) / 2, dt})
		totalW += dt
	}
	if len(segs) == 0 || totalW == 0 {
		// Degenerate (all samples coincident): fall back to a plain
		// median of the sample powers.
		ps := make([]float64, len(t.Samples))
		for i, s := range t.Samples {
			ps[i] = s.PowerW
		}
		sort.Float64s(ps)
		return ps[len(ps)/2]
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].p < segs[j].p })
	acc := 0.0
	for _, s := range segs {
		acc += s.w
		if acc >= totalW/2 {
			return s.p
		}
	}
	return segs[len(segs)-1].p
}

// Phase is one segment of a phase decomposition.
type Phase struct {
	// Kind is "ramp", "steady", or "tail".
	Kind string
	// StartS and EndS bound the phase.
	StartS, EndS float64
	// EnergyJ is the phase's integrated energy.
	EnergyJ float64
}

// Phases segments the trace into ramp (power climbing toward steady
// state), steady state, and tail (power decaying at the end), using the
// threshold fraction of steady power (e.g. 0.95) to mark entry/exit.
// Traces that never reach the threshold are reported as a single "steady"
// phase covering everything (no meaningful decomposition).
func (t *Trace) Phases(threshold float64) ([]Phase, error) {
	if threshold <= 0 || threshold >= 1 {
		return nil, errors.New("trace: threshold must be in (0,1)")
	}
	steady := t.SteadyPower()
	level := steady * threshold
	n := len(t.Samples)
	// First index at/above the level, last index at/above the level.
	first, last := -1, -1
	for i, s := range t.Samples {
		if s.PowerW >= level {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last <= first {
		return []Phase{{
			Kind: "steady", StartS: t.Samples[0].Seconds,
			EndS: t.Samples[n-1].Seconds, EnergyJ: t.Energy(),
		}}, nil
	}
	cuts := []int{0, first, last, n - 1}
	kinds := []string{"ramp", "steady", "tail"}
	var out []Phase
	for k := 0; k < 3; k++ {
		i, j := cuts[k], cuts[k+1]
		if j <= i {
			continue
		}
		seg := &Trace{Samples: t.Samples[i : j+1]}
		out = append(out, Phase{
			Kind:    kinds[k],
			StartS:  t.Samples[i].Seconds,
			EndS:    t.Samples[j].Seconds,
			EnergyJ: seg.Energy(),
		})
	}
	return out, nil
}

// FromSteps builds a trace from a piecewise-constant step profile
// (e.g. gpusim trace points): each step holds from its start to the next
// step's start, with the overall end supplied explicitly. Steps are
// sampled at both edges so integration is exact.
func FromSteps(starts, power []float64, endS float64) (*Trace, error) {
	if len(starts) != len(power) || len(starts) == 0 {
		return nil, errors.New("trace: bad step arrays")
	}
	var ts, ps []float64
	for i := range starts {
		end := endS
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		if end < starts[i] {
			return nil, fmt.Errorf("trace: step %d ends before it starts", i)
		}
		ts = append(ts, starts[i], end)
		ps = append(ps, power[i], power[i])
	}
	return New(ts, ps)
}
