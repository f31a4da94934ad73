package device

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
)

// CPU adapts a *cpusim.Machine. Its decision variables are the
// threadgroup decompositions of the Fig 4 application — (partition,
// groups, threads-per-group) — over the dense DGEMM or the threaded 2D
// FFT, the configuration space of the companion CPU weak-EP study.
type CPU struct {
	name string
	m    *cpusim.Machine
}

// NewCPU wraps a cpusim machine under the given registry name.
func NewCPU(name string, m *cpusim.Machine) (*CPU, error) {
	if name == "" {
		return nil, errors.New("device: CPU needs a name")
	}
	if m == nil || m.Spec == nil {
		return nil, errors.New("device: nil cpusim machine")
	}
	return &CPU{name: name, m: m}, nil
}

// Name implements Device.
func (c *CPU) Name() string { return c.name }

// Kind implements Device.
func (c *CPU) Kind() string { return "cpu" }

// Spec implements Device. CPU specs carry no nameplate TDP, so TDPWatts
// is 0.
func (c *CPU) Spec() Spec {
	return Spec{CatalogName: c.m.Spec.Name, IdlePowerW: c.m.Spec.IdlePowerW}
}

// CPUPoint is one threadgroup decomposition.
type CPUPoint struct {
	C dense.Config
}

// Key implements Config, e.g. "contiguous/p=2/t=12".
func (p CPUPoint) Key() string {
	return p.C.Partition.String() + "/p=" + strconv.Itoa(p.C.Groups) + "/t=" + strconv.Itoa(p.C.ThreadsPerGroup)
}

// String implements Config with the decomposition notation.
func (p CPUPoint) String() string { return p.C.String() }

// cpuApp is one CPU application family. Every family runs under the
// machine's threadgroup decompositions, so an entry is the family's
// smallest valid size and the kernel sequence one instance runs.
type cpuApp struct {
	// minN is the smallest valid size beyond Workload.Validate's N >= 1;
	// sizeName names N in its error.
	minN     int
	sizeName string
	// kernels runs one instance: its kernels in execution order.
	kernels func(m *cpusim.Machine, n int, cfg dense.Config) ([]*cpusim.Result, error)
}

// cpuApps is the CPU's application-family table; a new family is one
// entry. Like gpuApps it is filled in init so epvet's call graph sees
// the kernels behind CPU.Run.
var cpuApps map[string]cpuApp

func init() {
	cpuApps = map[string]cpuApp{
		AppDense: {kernels: func(m *cpusim.Machine, n int, cfg dense.Config) ([]*cpusim.Result, error) {
			r, err := m.RunGEMM(cpusim.GEMMApp{N: n, Config: cfg}, nil)
			return []*cpusim.Result{r}, err
		}},
		AppFFT: {minN: 2, sizeName: "FFT size", kernels: func(m *cpusim.Machine, n int, cfg dense.Config) ([]*cpusim.Result, error) {
			r, err := m.RunFFT2DThreaded(n, cfg, nil)
			return []*cpusim.Result{r}, err
		}},
		AppSpMV: {kernels: func(m *cpusim.Machine, n int, cfg dense.Config) ([]*cpusim.Result, error) {
			r, err := m.RunSpMVThreaded(n, cfg, nil)
			return []*cpusim.Result{r}, err
		}},
		AppStencil: {minN: 3, sizeName: "stencil grid", kernels: func(m *cpusim.Machine, n int, cfg dense.Config) ([]*cpusim.Result, error) {
			r, err := m.RunStencilThreaded(n, cfg, nil)
			return []*cpusim.Result{r}, err
		}},
		// One SpMV and one stencil sweep per instance under the same
		// decomposition; the energy is exactly the sum of the phases —
		// the additivity the counters property tests pin down.
		AppCompound: {minN: 3, sizeName: "stencil grid", kernels: func(m *cpusim.Machine, n int, cfg dense.Config) ([]*cpusim.Result, error) {
			sp, err := m.RunSpMVThreaded(n, cfg, nil)
			if err != nil {
				return nil, err
			}
			st, err := m.RunStencilThreaded(n, cfg, nil)
			if err != nil {
				return nil, err
			}
			return []*cpusim.Result{sp, st}, nil
		}},
	}
}

// Configs implements Device: the machine's enumeration filtered to the
// decompositions valid for the workload size (threads <= N).
func (c *CPU) Configs(w Workload) ([]Config, error) {
	w = w.Normalized()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	app, ok := cpuApps[w.App]
	if !ok {
		return nil, fmt.Errorf("device: %s cannot run application %q", c.name, w.App)
	}
	if w.N < app.minN {
		return nil, fmt.Errorf("device: %s %d must be >= %d", app.sizeName, w.N, app.minN)
	}
	var out []Config
	for _, cfg := range c.m.EnumerateConfigs() {
		if cfg.Validate(w.N) == nil {
			out = append(out, CPUPoint{C: cfg})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("device: %s admits no configurations for %v", c.name, w)
	}
	return out, nil
}

// Run implements Device. Products instances run back to back, so time
// and energy scale linearly with the count.
func (c *CPU) Run(ctx context.Context, w Workload, cfg Config) (*Outcome, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	w = w.Normalized()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p, ok := cfg.(CPUPoint)
	if !ok {
		return nil, configMismatch(c, cfg)
	}
	app, ok := cpuApps[w.App]
	if !ok {
		return nil, fmt.Errorf("device: %s cannot run application %q", c.name, w.App)
	}
	rs, err := app.kernels(c.m, w.N, p.C)
	if err != nil {
		return nil, err
	}
	phases := make([]phase, len(rs))
	for i, r := range rs {
		phases[i] = phase{r.Seconds, r.DynPowerW, r.DynEnergyJ}
	}
	return repeat(c.m.Spec.IdlePowerW, w.Products, phases...), nil
}
