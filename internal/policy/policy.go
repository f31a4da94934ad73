// Package policy implements the energy-policy dimension of the study:
// given a deadline window with slack, does a node spend less energy
// racing to idle (run at full tilt, drop to the deep-idle floor for the
// rest of the window) or pacing with DVFS (stretch the run over the
// whole window at a lower clock)?
//
// A policy is a device wrapper: policy.Wrap(dev, opts) is itself a
// device.Device whose configuration space is the cross product of the
// wrapped device's points with the enabled strategies, and whose
// energies are integrated over the whole deadline window against the
// deep-idle floor rather than over just the busy interval. Because the
// policy parameters are part of every configuration's Key, the memo
// cache, the parallel executor, the Pareto index, and the fleet layer
// all work unchanged — a policy point is just another point.
package policy

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"energyprop/internal/device"
	"energyprop/internal/meter"
)

// Strategy names.
const (
	// RaceToIdle runs the work at full speed and drops the node to its
	// deep-idle floor until the deadline.
	RaceToIdle = "race"
	// DVFSPaced stretches the work over the whole deadline window at a
	// lower clock; dynamic power falls as the cube of the slowdown.
	DVFSPaced = "paced"
)

// PacedExponent is the alpha of the P ~ f^alpha dynamic-power law the
// paced strategy assumes (f·V² with V tracking f gives alpha = 3).
const PacedExponent = 3

// Defaults for the policy parameters.
const (
	// DefaultSlack is the deadline window as a multiple of the busy
	// interval: 1.5 means 50% slack.
	DefaultSlack = 1.5
	// DefaultFloorFrac is the deep-idle floor as a fraction of the
	// device's active-idle power (package C-states cut idle draw hard).
	DefaultFloorFrac = 0.3
)

// Strategies returns the registered strategy names in canonical order.
func Strategies() []string {
	return []string{RaceToIdle, DVFSPaced}
}

// ValidStrategy reports whether name is a registered strategy.
func ValidStrategy(name string) bool {
	for _, s := range Strategies() {
		if s == name {
			return true
		}
	}
	return false
}

// Options selects the strategies and deadline parameters of a policy
// wrapper.
type Options struct {
	// Strategies lists the strategies to enumerate; empty means all
	// registered strategies.
	Strategies []string
	// Slack is the deadline window as a multiple of the busy interval;
	// 0 means DefaultSlack. Must be >= 1 otherwise.
	Slack float64
	// FloorFrac is the deep-idle floor as a fraction of the wrapped
	// device's idle power; 0 means DefaultFloorFrac. Must be in [0, 1).
	FloorFrac float64
}

// Normalized resolves the options' defaults.
func (o Options) Normalized() Options {
	if len(o.Strategies) == 0 {
		o.Strategies = Strategies()
	}
	if o.Slack == 0 {
		o.Slack = DefaultSlack
	}
	if o.FloorFrac == 0 {
		o.FloorFrac = DefaultFloorFrac
	}
	return o
}

// Validate checks the normalized options.
func (o Options) Validate() error {
	o = o.Normalized()
	for _, s := range o.Strategies {
		if !ValidStrategy(s) {
			return fmt.Errorf("policy: unknown strategy %q (known: %v)", s, Strategies())
		}
	}
	if o.Slack < 1 {
		return fmt.Errorf("policy: slack %.4g must be >= 1 (the deadline cannot precede the work)", o.Slack)
	}
	if o.FloorFrac < 0 || o.FloorFrac >= 1 {
		return fmt.Errorf("policy: floor fraction %.4g must be in [0, 1)", o.FloorFrac)
	}
	return nil
}

// Point is one policy configuration: a strategy plus deadline parameters
// wrapped around one of the inner device's points. It is comparable as
// long as the inner config is (all device configs are, by contract).
type Point struct {
	Strategy string
	Slack    float64
	Floor    float64
	Inner    device.Config
}

func fmtParam(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Key implements device.Config, e.g. "pol=race/s=1.5/f=0.3/bs=24/g=1/r=8".
// The policy parameters are part of the identity: two points differing
// only in slack measure different energies, so they must never share a
// memo-cache slot or a meter seed.
func (p Point) Key() string {
	return "pol=" + p.Strategy + "/s=" + fmtParam(p.Slack) + "/f=" + fmtParam(p.Floor) + "/" + p.Inner.Key()
}

// String implements device.Config.
func (p Point) String() string {
	return "(" + p.Strategy + " s=" + fmtParam(p.Slack) + " f=" + fmtParam(p.Floor) + " " + p.Inner.String() + ")"
}

// Validate checks the point's policy parameters.
func (p Point) Validate() error {
	if !ValidStrategy(p.Strategy) {
		return fmt.Errorf("policy: unknown strategy %q (known: %v)", p.Strategy, Strategies())
	}
	if p.Slack < 1 {
		return fmt.Errorf("policy: slack %.4g must be >= 1", p.Slack)
	}
	if p.Floor < 0 || p.Floor >= 1 {
		return fmt.Errorf("policy: floor fraction %.4g must be in [0, 1)", p.Floor)
	}
	if p.Inner == nil {
		return fmt.Errorf("policy: point wraps no inner configuration")
	}
	return nil
}

// Device wraps a device.Device under an energy policy. Its reported idle
// power is the deep-idle floor, so the meter's static/dynamic
// decomposition measures "energy above the floor over the deadline
// window" — the quantity the race-vs-pace comparison is about.
type Device struct {
	inner device.Device
	opts  Options
}

// Wrap puts the device under the policy described by opts.
func Wrap(inner device.Device, opts Options) (*Device, error) {
	if inner == nil {
		return nil, fmt.Errorf("policy: nil device")
	}
	opts = opts.Normalized()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Device{inner: inner, opts: opts}, nil
}

// Name implements device.Device: the wrapped device's registry name, so
// policy campaigns land in the same result-index buckets as plain ones.
func (d *Device) Name() string { return d.inner.Name() }

// Kind implements device.Device.
func (d *Device) Kind() string { return d.inner.Kind() }

// Spec implements device.Device: the hardware is unchanged, but the
// node's baseline is the deep-idle floor the policy window settles to.
func (d *Device) Spec() device.Spec {
	s := d.inner.Spec()
	s.IdlePowerW *= d.opts.FloorFrac
	return s
}

// Analytic implements device.AnalyticProvider: the policy over the
// wrapped device's analytic variant (or over the device itself when it
// has no analytic mode).
func (d *Device) Analytic() device.Device {
	inner := d.inner
	if ap, ok := inner.(device.AnalyticProvider); ok {
		inner = ap.Analytic()
	}
	return &Device{inner: inner, opts: d.opts}
}

// Configs implements device.Device: the cross product of the enabled
// strategies with the wrapped device's points, strategies outermost.
func (d *Device) Configs(w device.Workload) ([]device.Config, error) {
	inner, err := d.inner.Configs(w)
	if err != nil {
		return nil, err
	}
	out := make([]device.Config, 0, len(d.opts.Strategies)*len(inner))
	for _, s := range d.opts.Strategies {
		for _, c := range inner {
			out = append(out, Point{Strategy: s, Slack: d.opts.Slack, Floor: d.opts.FloorFrac, Inner: c})
		}
	}
	return out, nil
}

// Run implements device.Device. The inner device solves the work; the
// policy decides what the node does with the deadline window:
//
// Race: the busy profile plays unchanged, then the node drops to the
// floor until the deadline D = slack × busy. Time is the busy interval
// (the work is simply done early); energy above the floor is the busy
// energy minus the floor over the busy interval.
//
// Paced: the profile stretches over the whole window at a lower clock.
// The active-idle baseline does not scale with frequency; the dynamic
// component above it scales as slack^-alpha, so the paced dynamic
// energy is the busy dynamic energy times slack^(1-alpha). Time is the
// whole window.
//
// Both profiles integrate to floor·D + TrueEnergyJ exactly, which is
// what keeps the meter's static/dynamic decomposition consistent with
// the outcome (the additivity the determinism battery pins down).
func (d *Device) Run(ctx context.Context, w device.Workload, c device.Config) (*device.Outcome, error) {
	p, ok := c.(Point)
	if !ok {
		return nil, fmt.Errorf("device: config %v is not a policy configuration of %s", c, d.Name())
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out, err := d.inner.Run(ctx, w, p.Inner)
	if err != nil {
		return nil, err
	}
	innerIdle := d.inner.Spec().IdlePowerW
	floorW := p.Floor * innerIdle
	busy := out.Run.Duration()
	deadline := p.Slack * busy
	switch p.Strategy {
	case RaceToIdle:
		run := meter.WindowRun{Busy: out.Run, DeadlineS: deadline, FloorW: floorW}
		return &device.Outcome{
			TrueSeconds: out.TrueSeconds,
			TrueEnergyJ: meter.TrueEnergy(out.Run) - floorW*busy,
			Run:         run,
		}, nil
	case DVFSPaced:
		scale := math.Pow(p.Slack, -PacedExponent)
		run := meter.PacedRun{Base: out.Run, Stretch: p.Slack, BaselineW: innerIdle, PowerScale: scale}
		aboveBaseline := meter.TrueEnergy(out.Run) - innerIdle*busy
		return &device.Outcome{
			TrueSeconds: p.Slack * out.TrueSeconds,
			TrueEnergyJ: (innerIdle-floorW)*deadline + aboveBaseline*scale*p.Slack,
			Run:         run,
		}, nil
	default:
		return nil, fmt.Errorf("policy: unknown strategy %q (known: %v)", p.Strategy, Strategies())
	}
}
