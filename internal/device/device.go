// Package device is the backend-neutral layer the measurement pipeline
// runs on: one Device interface over the GPU simulator (gpusim), the
// multicore CPU simulator (cpusim), and heterogeneous CPU+GPU ensembles
// (hetero), plus a registry of named builtin devices ("k40c", "p100",
// "haswell", "legacy-xeon", "hetero").
//
// A Device enumerates its decision-variable points (Configs) for a
// workload and executes one point (Run), returning the model-true time
// and dynamic energy together with a meter.Run power profile the
// WattsUp-style meter can sample. Everything above this package —
// internal/campaign, internal/service, cmd/gpusweep, cmd/epstudy — is
// written against the interface, so a CPU weak-EP campaign, a GPU sweep,
// and a hetero distribution study all flow through the same statistical
// and persistence code path.
package device

import (
	"context"
	"fmt"

	"energyprop/internal/meter"
)

// Workload is the backend-neutral problem statement: Products instances
// of an N-sized application from one family. Every configuration of a
// device must solve exactly this work, which is what makes its points
// comparable under the weak-EP definition.
type Workload struct {
	// App selects the application family: "dgemm" (alias "matmul", and
	// the default when empty), "fft", the bandwidth-bound "spmv" and
	// "stencil" families, or "compound" (one SpMV then one stencil sweep
	// per instance). GPUs run the dense family as the paper's matmul
	// kernel; CPUs run it as the threaded DGEMM.
	App string `json:"app,omitempty"`
	// N is the square matrix / signal dimension.
	N int
	// Products is the number of independent instances (G·R on a GPU,
	// back-to-back runs elsewhere); 0 means 1.
	Products int
}

// Application family names after normalization.
const (
	AppDense    = "dgemm"
	AppFFT      = "fft"
	AppSpMV     = "spmv"
	AppStencil  = "stencil"
	AppCompound = "compound"
)

// Apps lists the application families in canonical order.
func Apps() []string {
	return []string{AppDense, AppFFT, AppSpMV, AppStencil, AppCompound}
}

func knownApp(app string) bool {
	for _, a := range Apps() {
		if a == app {
			return true
		}
	}
	return false
}

// Normalized resolves the workload's defaults: an empty or alias App
// becomes the canonical family name and Products=0 becomes 1.
func (w Workload) Normalized() Workload {
	switch w.App {
	case "", "matmul", AppDense:
		w.App = AppDense
	}
	if w.Products == 0 {
		w.Products = 1
	}
	return w
}

// Validate checks the normalized workload. Family-specific constraints
// (e.g. FFT sizes must be >= 2) are checked by the device's Configs.
func (w Workload) Validate() error {
	w = w.Normalized()
	if !knownApp(w.App) {
		return fmt.Errorf("device: unknown application %q (known: %v)", w.App, Apps())
	}
	if w.N < 1 {
		return fmt.Errorf("device: workload N=%d must be >= 1", w.N)
	}
	if w.Products < 1 {
		return fmt.Errorf("device: workload Products=%d must be >= 1", w.Products)
	}
	return nil
}

// String renders the workload compactly, e.g. "dgemm N=4096 x8".
func (w Workload) String() string {
	w = w.Normalized()
	return fmt.Sprintf("%s N=%d x%d", w.App, w.N, w.Products)
}

// Config is one point of a device's decision-variable space. Every
// implementation is a comparable value type (usable as a map key), so a
// configuration's identity is its value, not its position in any list.
type Config interface {
	// Key is the stable machine-readable identity: lowercase, no spaces
	// or commas (CSV- and URL-safe), unique within a device's space.
	// The per-config meter seed is derived from it (see ConfigSeed).
	Key() string
	// String is the human-readable label, e.g. the paper's
	// "(BS=24, G=1, R=8)" notation.
	String() string
}

// Spec describes the hardware behind a device.
type Spec struct {
	// CatalogName is the hardware's catalog identity ("NVIDIA K40c",
	// "Intel Haswell E5-2670 v3 (2 sockets)", ...).
	CatalogName string `json:"catalog_name"`
	// IdlePowerW is the node's static power — the meter's baseline.
	IdlePowerW float64 `json:"idle_power_w"`
	// TDPWatts is the nameplate TDP, or 0 when the spec doesn't carry one.
	TDPWatts float64 `json:"tdp_watts"`
}

// Outcome is one configuration's model-true execution: ground-truth time
// and dynamic energy plus the node power profile for the meter to sample.
type Outcome struct {
	// TrueSeconds is the model's execution time.
	TrueSeconds float64
	// TrueEnergyJ is the model's dynamic energy.
	TrueEnergyJ float64
	// Run is the total node power profile (idle + dynamic) over the run.
	Run meter.Run
}

// Device is one measurable backend.
type Device interface {
	// Name is the registry name ("p100", "haswell", ...).
	Name() string
	// Kind classifies the backend: "gpu", "cpu", or "hetero".
	Kind() string
	// Spec describes the hardware.
	Spec() Spec
	// Configs enumerates the decision-variable points valid for the
	// workload, in a stable canonical order. It validates the workload
	// and returns an error (never an empty list) when the device cannot
	// run it.
	Configs(w Workload) ([]Config, error)
	// Run executes one configuration and returns the model-true outcome.
	// The config must be one produced by Configs for the same workload.
	Run(ctx context.Context, w Workload, c Config) (*Outcome, error)
}

// AnalyticProvider is implemented by devices that can trade their
// time-varying power profile for the constant analytic one — the
// model-true mode CLI sweeps use when no meter is involved. Analytic
// returns a device identical except for the profile shape.
type AnalyticProvider interface {
	Analytic() Device
}

// phase is one kernel's contribution to an outcome: the time, dynamic
// power, and dynamic energy every backend's kernel result carries.
type phase struct{ seconds, powerW, energyJ float64 }

// repeat builds the outcome of n back-to-back instances of a kernel
// sequence over the node's idle power: a constant profile for a single
// kernel, and for a sequence (the compound family) a staircase whose
// energy is exactly the sum of the phase energies.
func repeat(idleW float64, n int, phases ...phase) *Outcome {
	k := float64(n)
	if len(phases) == 1 {
		p := phases[0]
		return &Outcome{
			TrueSeconds: k * p.seconds,
			TrueEnergyJ: k * p.energyJ,
			Run:         meter.ConstantRun{Seconds: k * p.seconds, Watts: idleW + p.powerW},
		}
	}
	var seconds, energy float64
	run := &meter.SegmentRun{}
	for _, p := range phases {
		seconds += p.seconds
		energy += p.energyJ
		run.AddSegment(k*p.seconds, idleW+p.powerW)
	}
	return &Outcome{TrueSeconds: k * seconds, TrueEnergyJ: k * energy, Run: run}
}

// configMismatch builds the error for a Config of the wrong concrete
// type handed to a device's Run.
func configMismatch(d Device, c Config) error {
	return fmt.Errorf("device: config %v is not a %s configuration", c, d.Name())
}

// checkCtx lets long enumerations and runs honor cancellation between
// model evaluations.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
