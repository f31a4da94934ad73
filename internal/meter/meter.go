// Package meter simulates the paper's energy-measurement stack: a WattsUp
// Pro power meter sitting between the wall socket and the node (sampling
// total node power at a fixed interval) and an HCLWattsUp-style API that
// turns a run's sampled power trace into total and dynamic energy by
// subtracting the idle baseline.
//
// The meter is the only place measurement noise enters the system: the
// machine models in cpusim/gpusim are deterministic, and the meter's seeded
// Gaussian sampling noise is what the statistical loop in internal/stats
// (95% confidence, 2.5% precision, Student's t) exists to average away.
package meter

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"energyprop/internal/randsrc"
)

// Run describes one application execution whose node power is to be
// sampled: its duration and the true (pre-noise) node power at any instant
// from the run's start. Implementations are provided by the simulators.
type Run interface {
	// Duration returns the run's wall-clock length in seconds.
	Duration() float64
	// PowerAt returns the node's total power draw in watts at time t
	// seconds after the run starts (0 <= t <= Duration).
	PowerAt(t float64) float64
}

// ConstantRun is the simplest Run: a fixed power level for a fixed time.
type ConstantRun struct {
	Seconds float64
	Watts   float64
}

// Duration implements Run.
func (c ConstantRun) Duration() float64 { return c.Seconds }

// PowerAt implements Run.
func (c ConstantRun) PowerAt(float64) float64 { return c.Watts }

// SegmentRun is a piecewise-constant power profile, e.g. a kernel with a
// warm-up phase followed by steady state.
type SegmentRun struct {
	segs []segment
}

type segment struct {
	seconds float64
	watts   float64
}

// NewSegmentRun returns an empty SegmentRun with room for n segments, so
// a caller that knows its phase count builds the profile in one
// allocation.
func NewSegmentRun(n int) *SegmentRun {
	return &SegmentRun{segs: make([]segment, 0, n)}
}

// AddSegment appends a phase of the given length and power level and
// returns the run for chaining. Non-positive durations are ignored.
func (s *SegmentRun) AddSegment(seconds, watts float64) *SegmentRun {
	if seconds > 0 {
		s.segs = append(s.segs, segment{seconds, watts})
	}
	return s
}

// Duration implements Run.
func (s *SegmentRun) Duration() float64 {
	total := 0.0
	for _, seg := range s.segs {
		total += seg.seconds
	}
	return total
}

// PowerAt implements Run.
func (s *SegmentRun) PowerAt(t float64) float64 {
	for _, seg := range s.segs {
		if t < seg.seconds {
			return seg.watts
		}
		t -= seg.seconds
	}
	if n := len(s.segs); n > 0 {
		return s.segs[n-1].watts
	}
	return 0
}

// TrueEnergy integrates the run's exact (noise-free) energy in joules.
// It is exact for piecewise-constant profiles and uses fine trapezoidal
// integration otherwise.
func TrueEnergy(r Run) float64 {
	if s, ok := r.(*SegmentRun); ok {
		e := 0.0
		for _, seg := range s.segs {
			e += seg.seconds * seg.watts
		}
		return e
	}
	if c, ok := r.(ConstantRun); ok {
		return c.Seconds * c.Watts
	}
	if w, ok := r.(WindowRun); ok {
		return windowTrueEnergy(w)
	}
	if p, ok := r.(PacedRun); ok {
		return pacedTrueEnergy(p)
	}
	return integrate(r.PowerAt, r.Duration(), 1e-3)
}

func integrate(p func(float64) float64, dur, step float64) float64 {
	if dur <= 0 {
		return 0
	}
	n := int(math.Ceil(dur / step))
	if n < 1 {
		n = 1
	}
	h := dur / float64(n)
	sum := (p(0) + p(dur)) / 2
	for i := 1; i < n; i++ {
		sum += p(float64(i) * h)
	}
	return sum * h
}

// Meter models the physical WattsUp Pro: a sampling interval (the real
// meter reports at 1 Hz), a relative Gaussian noise level per sample, and
// the idle power of the node it is attached to.
type Meter struct {
	// IdlePowerW is the node's measured static (idle) power; the dynamic
	// energy of a run is total energy minus IdlePowerW × duration.
	IdlePowerW float64
	// SampleInterval is the meter's sampling period in seconds (1.0 for a
	// WattsUp Pro).
	SampleInterval float64
	// NoiseFrac is the standard deviation of the per-sample multiplicative
	// noise (e.g. 0.01 for 1%).
	NoiseFrac float64
	// SpikeProb is the per-sample probability of a transient disturbance —
	// the SSD/fan activity the paper's methodology takes "several
	// precautions" against. A spike multiplies the sample by SpikeFactor.
	SpikeProb float64
	// SpikeFactor is the disturbance magnitude (default 1.3 when
	// SpikeProb is set and SpikeFactor is 0).
	SpikeFactor float64
	// RecordTrace, when set, stores the raw (time, power) samples in the
	// report, so tests can compare two measurements sample by sample.
	RecordTrace bool

	rng *rand.Rand
	// scratchT/scratchP are reused across MeasureRun calls so the
	// statistical loop's repeated measurements are allocation-free in
	// steady state. When RecordTrace is set, ownership of the slices
	// passes to the Report and fresh scratch grows on the next call. A
	// Meter is not safe for concurrent use (the rng already forbids it),
	// so the scratch needs no locking.
	scratchT, scratchP []float64
}

// NewMeter returns a meter with the given idle power, WattsUp-like 1 s
// sampling, 1% sample noise, and a deterministic seed.
func NewMeter(idlePowerW float64, seed int64) *Meter {
	m := new(Meter)
	m.Reset(idlePowerW, seed)
	return m
}

// Reset returns m to the state NewMeter(idlePowerW, seed) builds — every
// field at its default, the generator reseeded — while keeping the
// generator and the sample scratch for reuse. A reseeded generator draws
// exactly the sequence a freshly constructed one would, so a reset
// meter's reports are bit-identical to a new meter's. This is how a
// pool of meters serves a campaign's points without allocating a
// generator per point. The generator runs on a randsrc.Source, which
// draws math/rand's sequence for every seed but reseeds without the
// 1,841-step division chain.
func (m *Meter) Reset(idlePowerW float64, seed int64) {
	*m = Meter{
		IdlePowerW:     idlePowerW,
		SampleInterval: 1.0,
		NoiseFrac:      0.01,
		rng:            m.rng,
		scratchT:       m.scratchT,
		scratchP:       m.scratchP,
	}
	if m.rng == nil {
		m.rng = rand.New(new(randsrc.Source))
	}
	m.rng.Seed(seed)
}

// Report is the outcome of measuring one run.
type Report struct {
	// Seconds is the run's wall-clock time as observed.
	Seconds float64
	// TotalEnergyJ is the integrated node energy over the run.
	TotalEnergyJ float64
	// StaticEnergyJ is idle power × duration.
	StaticEnergyJ float64
	// DynamicEnergyJ is TotalEnergyJ − StaticEnergyJ.
	DynamicEnergyJ float64
	// AvgPowerW is TotalEnergyJ / Seconds.
	AvgPowerW float64
	// Samples is the number of meter samples integrated.
	Samples int
	// Spikes counts transient-disturbance samples injected by the meter
	// (diagnostics for robustness tests).
	Spikes int
	// SampleTimes and SamplePowers hold the raw samples when the meter's
	// RecordTrace is set (nil otherwise).
	SampleTimes, SamplePowers []float64
}

// ErrBadRun is returned for runs with non-positive duration.
var ErrBadRun = errors.New("meter: run duration must be positive")

// ErrCorruptSample marks a physically impossible meter reading — NaN,
// infinite, or negative watts at the wall. Real WattsUp deployments see
// these as dropped samples or register glitches; the meter fails the
// measurement loudly instead of integrating garbage into the energy, so
// the campaign layer can retry the point from a fresh meter.
var ErrCorruptSample = errors.New("meter: corrupt power sample")

// MeasureRun samples the run's power at the meter's interval, applies the
// meter's noise, integrates with the trapezoidal rule, and subtracts the
// idle baseline — the HCLWattsUp dynamic/total decomposition. Runs shorter
// than one sampling interval are still integrated (with samples at the
// endpoints), matching how sub-second kernels are handled by averaging
// repeated invocations in the real methodology.
func (m *Meter) MeasureRun(r Run) (*Report, error) {
	dur := r.Duration()
	if dur <= 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		return nil, ErrBadRun
	}
	interval := m.SampleInterval
	if interval <= 0 {
		interval = 1.0
	}
	n := int(dur / interval)
	// Sample times: 0, interval, ..., plus the final endpoint. The
	// scratch slice is append-built from length zero, so stale contents
	// never survive into a measurement.
	times := m.scratchT[:0]
	if cap(times) < n+2 {
		times = make([]float64, 0, n+2)
	}
	for i := 0; i <= n; i++ {
		t := float64(i) * interval
		if t > dur {
			break
		}
		times = append(times, t)
	}
	if last := times[len(times)-1]; last < dur {
		times = append(times, dur)
	}
	if len(times) == 1 {
		times = append(times, dur)
	}
	powers := m.scratchP
	if cap(powers) < len(times) {
		powers = make([]float64, len(times))
	}
	powers = powers[:len(times)]
	spikes := 0
	for i, t := range times {
		p := r.PowerAt(math.Min(t, dur))
		if m.NoiseFrac > 0 {
			p *= 1 + m.rng.NormFloat64()*m.NoiseFrac
		}
		if m.SpikeProb > 0 && m.rng.Float64() < m.SpikeProb {
			f := m.SpikeFactor
			if f == 0 {
				f = 1.3
			}
			p *= f
			spikes++
		}
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			// Keep the scratch for reuse, then fail the whole measurement:
			// a dropped or glitched sample poisons the trapezoidal
			// integral, and averaging it away would silently corrupt the
			// record.
			m.scratchT, m.scratchP = times, powers
			return nil, fmt.Errorf("%w: sample %d at t=%.4gs reads %v W", ErrCorruptSample, i, t, p)
		}
		powers[i] = p
	}
	total := 0.0
	for i := 1; i < len(times); i++ {
		dt := times[i] - times[i-1]
		total += dt * (powers[i] + powers[i-1]) / 2
	}
	static := m.IdlePowerW * dur
	rep := &Report{
		Seconds:        dur,
		TotalEnergyJ:   total,
		StaticEnergyJ:  static,
		DynamicEnergyJ: total - static,
		AvgPowerW:      total / dur,
		Samples:        len(times),
		Spikes:         spikes,
	}
	if m.RecordTrace {
		// The report takes the slices; drop them from the scratch so the
		// next measurement cannot overwrite a recorded trace.
		rep.SampleTimes = times
		rep.SamplePowers = powers
		m.scratchT, m.scratchP = nil, nil
	} else {
		m.scratchT, m.scratchP = times, powers
	}
	return rep, nil
}
