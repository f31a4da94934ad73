package policy

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/gpusim"
	"energyprop/internal/meter"
)

func openPolicy(t testing.TB, name string, opts Options) *Device {
	t.Helper()
	inner, err := device.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Wrap(inner, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestOptionsDefaultsAndValidation(t *testing.T) {
	o := Options{}.Normalized()
	if o.Slack != DefaultSlack || o.FloorFrac != DefaultFloorFrac || len(o.Strategies) != 2 {
		t.Fatalf("defaults: %+v", o)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options must validate: %v", err)
	}
	err := (Options{Strategies: []string{"sprint"}}).Validate()
	if err == nil || !strings.Contains(err.Error(), RaceToIdle) || !strings.Contains(err.Error(), DVFSPaced) {
		t.Errorf("unknown strategy error must list the registered ones, got %v", err)
	}
	if (Options{Slack: 0.5}).Validate() == nil {
		t.Error("slack < 1 must fail")
	}
	if (Options{FloorFrac: 1}).Validate() == nil {
		t.Error("floor fraction 1 must fail")
	}
	if (Options{FloorFrac: -0.1}).Validate() == nil {
		t.Error("negative floor fraction must fail")
	}
	if _, err := Wrap(nil, Options{}); err == nil {
		t.Error("nil device must fail")
	}
}

// TestPointKeyMatchesFormatted pins the concatenated Key and String to
// the fmt verbs they replaced, over every strategy, awkward floats and
// both a flat and a composite inner config.
func TestPointKeyMatchesFormatted(t *testing.T) {
	inners := []device.Config{device.FFTPoint{}, device.GPUPoint{C: gpusim.MatMulConfig{BS: 24, G: 1, R: 8}}}
	params := []float64{0, 1, 1.5, 0.3, 1e-7, 2.0000000001, 123456789, math.Inf(1)}
	for _, s := range Strategies() {
		for _, slack := range params {
			for _, floor := range params {
				for _, in := range inners {
					p := Point{Strategy: s, Slack: slack, Floor: floor, Inner: in}
					key := fmt.Sprintf("pol=%s/s=%s/f=%s/%s", s, fmtParam(slack), fmtParam(floor), in.Key())
					str := fmt.Sprintf("(%s s=%s f=%s %s)", s, fmtParam(slack), fmtParam(floor), in.String())
					if p.Key() != key || p.String() != str {
						t.Fatalf("Key, String = %q, %q; want %q, %q", p.Key(), p.String(), key, str)
					}
				}
			}
		}
	}
}

func TestPointKeyCarriesPolicyParameters(t *testing.T) {
	p := Point{Strategy: RaceToIdle, Slack: 1.5, Floor: 0.3, Inner: device.FFTPoint{}}
	if got, want := p.Key(), "pol=race/s=1.5/f=0.3/fft"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	q := p
	q.Slack = 2
	if p.Key() == q.Key() {
		t.Error("points differing in slack must not share a key (memo-cache identity)")
	}
	if !strings.Contains(p.String(), "race") {
		t.Errorf("String() = %q", p.String())
	}
	if err := (Point{Strategy: "sprint", Slack: 1.5, Floor: 0.3, Inner: device.FFTPoint{}}).Validate(); err == nil {
		t.Error("unknown strategy point must fail")
	}
	if err := (Point{Strategy: RaceToIdle, Slack: 1.5, Floor: 0.3}).Validate(); err == nil {
		t.Error("nil inner config must fail")
	}
}

func TestConfigsCrossProduct(t *testing.T) {
	d := openPolicy(t, "p100", Options{Slack: 2, FloorFrac: 0.25})
	w := device.Workload{App: device.AppSpMV, N: 2048}
	inner, err := d.Underlying().Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	configs, err := d.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 2*len(inner) {
		t.Fatalf("got %d configs, want %d (strategies × inner)", len(configs), 2*len(inner))
	}
	for i, c := range configs {
		p, ok := c.(Point)
		if !ok {
			t.Fatalf("config %d is %T", i, c)
		}
		if p.Slack != 2 || p.Floor != 0.25 {
			t.Fatalf("config %d carries %+v, want the wrapper's parameters", i, p)
		}
		wantStrategy := RaceToIdle
		if i >= len(inner) {
			wantStrategy = DVFSPaced
		}
		if p.Strategy != wantStrategy {
			t.Fatalf("config %d strategy %q, want %q (strategies outermost)", i, p.Strategy, wantStrategy)
		}
	}
}

func TestDeviceSurface(t *testing.T) {
	d := openPolicy(t, "p100", Options{FloorFrac: 0.5})
	inner := d.Underlying()
	if d.Name() != inner.Name() || d.Kind() != inner.Kind() {
		t.Error("identity must pass through to the wrapped device")
	}
	if got, want := d.Spec().IdlePowerW, 0.5*inner.Spec().IdlePowerW; got != want {
		t.Errorf("policy idle %g W, want floor %g W", got, want)
	}
	a, ok := d.Analytic().(*Device)
	if !ok {
		t.Fatal("Analytic must stay a policy device")
	}
	if ao, do := a.Options(), d.Options(); ao.Slack != do.Slack || ao.FloorFrac != do.FloorFrac {
		t.Error("Analytic must keep the options")
	}
}

// The window-energy invariant: for both strategies, the power profile
// must integrate to exactly floor·deadline + TrueEnergyJ, so the meter's
// static/dynamic decomposition recovers the outcome.
func TestRunProfileDecomposition(t *testing.T) {
	for _, name := range []string{"p100", "haswell", "hetero"} {
		for _, strat := range Strategies() {
			d := openPolicy(t, name, Options{Strategies: []string{strat}, Slack: 1.8, FloorFrac: 0.4})
			w := device.Workload{App: device.AppCompound, N: 512, Products: 2}
			configs, err := d.Configs(w)
			if err != nil {
				t.Fatal(err)
			}
			out, err := d.Run(context.Background(), w, configs[0])
			if err != nil {
				t.Fatal(err)
			}
			if out.TrueSeconds <= 0 || out.TrueEnergyJ <= 0 {
				t.Fatalf("%s/%s: non-positive outcome %+v", name, strat, out)
			}
			floorW := d.Spec().IdlePowerW
			want := floorW*out.Run.Duration() + out.TrueEnergyJ
			got := meter.TrueEnergy(out.Run)
			if rel := math.Abs(got-want) / want; rel > 1e-9 {
				t.Errorf("%s/%s: profile integrates to %g J, want %g J", name, strat, got, want)
			}
		}
	}
}

func TestRaceVsPacedPhysics(t *testing.T) {
	inner, err := device.Open("p100")
	if err != nil {
		t.Fatal(err)
	}
	w := device.Workload{App: device.AppSpMV, N: 8192}
	innerCfgs, err := inner.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	base, err := inner.Run(context.Background(), w, innerCfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	run := func(strat string, slack float64) *device.Outcome {
		t.Helper()
		d, err := Wrap(inner, Options{Strategies: []string{strat}, Slack: slack, FloorFrac: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		out, err := d.Run(context.Background(), w, Point{Strategy: strat, Slack: slack, Floor: 0.3, Inner: innerCfgs[0]})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	race := run(RaceToIdle, 1.6)
	paced := run(DVFSPaced, 1.6)
	// Race finishes with the work; pacing occupies the whole window.
	if race.TrueSeconds != base.TrueSeconds {
		t.Errorf("race time %g, want the busy interval %g", race.TrueSeconds, base.TrueSeconds)
	}
	if got, want := paced.TrueSeconds, 1.6*base.TrueSeconds; math.Abs(got-want) > 1e-12*want {
		t.Errorf("paced time %g, want the window %g", got, want)
	}
	// At slack 1 there is no window to spend: both strategies degenerate
	// to the same above-floor energy.
	r1, p1 := run(RaceToIdle, 1), run(DVFSPaced, 1)
	if math.Abs(r1.TrueEnergyJ-p1.TrueEnergyJ) > 1e-9*r1.TrueEnergyJ {
		t.Errorf("at slack 1, race %g J != paced %g J", r1.TrueEnergyJ, p1.TrueEnergyJ)
	}
	// The cube-law savings: the paced dynamic component above the
	// active-idle baseline shrinks by slack^(1-alpha) relative to race.
	idle := inner.Spec().IdlePowerW
	floorW := 0.3 * idle
	busy := base.Run.Duration()
	raceAbove := race.TrueEnergyJ - (idle-floorW)*busy
	pacedAbove := paced.TrueEnergyJ - (idle-floorW)*1.6*busy
	wantScale := math.Pow(1.6, 1-PacedExponent)
	if rel := math.Abs(pacedAbove-raceAbove*wantScale) / (raceAbove * wantScale); rel > 1e-9 {
		t.Errorf("paced dynamic %g J, want race %g J × %g", pacedAbove, raceAbove, wantScale)
	}
}

func TestRunRejectsForeignConfigs(t *testing.T) {
	d := openPolicy(t, "p100", Options{})
	w := device.Workload{App: device.AppFFT, N: 1024}
	if _, err := d.Run(context.Background(), w, device.FFTPoint{}); err == nil {
		t.Error("bare inner config must be rejected")
	}
	bad := Point{Strategy: "sprint", Slack: 1.5, Floor: 0.3, Inner: device.FFTPoint{}}
	if _, err := d.Run(context.Background(), w, bad); err == nil {
		t.Error("unknown strategy point must be rejected")
	}
}

// A policy outcome must be measurable by the meter stack with the policy
// floor as baseline, and repeated runs must be bit-identical.
func TestPolicyMeasurableAndDeterministic(t *testing.T) {
	d := openPolicy(t, "haswell", Options{Slack: 2, FloorFrac: 0.3})
	w := device.Workload{App: device.AppStencil, N: 1024}
	configs, err := d.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	c := configs[len(configs)-1]
	a, err := d.Run(context.Background(), w, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Run(context.Background(), w, c)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrueSeconds != b.TrueSeconds || a.TrueEnergyJ != b.TrueEnergyJ {
		t.Error("policy reruns differ")
	}
	m := meter.NewMeter(d.Spec().IdlePowerW, device.ConfigSeed(1, c))
	m.NoiseFrac = 0
	if dur := a.Run.Duration(); dur < 50 {
		m.SampleInterval = dur / 50
	}
	rep, err := m.MeasureRun(a.Run)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rep.DynamicEnergyJ-a.TrueEnergyJ) / a.TrueEnergyJ; rel > 0.02 {
		t.Errorf("noise-free meter reads %g J dynamic, outcome says %g J (rel %g)", rep.DynamicEnergyJ, a.TrueEnergyJ, rel)
	}
}

func BenchmarkPolicyRun(b *testing.B) {
	d := openPolicy(b, "p100", Options{})
	w := device.Workload{App: device.AppSpMV, N: 4096}
	configs, err := d.Configs(w)
	if err != nil {
		b.Fatal(err)
	}
	c := configs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(context.Background(), w, c); err != nil {
			b.Fatal(err)
		}
	}
}

// Options returns the wrapper's normalized options.
func (d *Device) Options() Options { return d.opts }

// Underlying exposes the wrapped device.
func (d *Device) Underlying() device.Device { return d.inner }
