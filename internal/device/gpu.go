package device

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"energyprop/internal/gpusim"
)

// GPU adapts a *gpusim.Device. Its dense decision variables are the
// paper's (BS, G, R) triples; the FFT family has a single point (CUFFT
// exposes no launch knobs in the study). By default runs go through the
// block scheduler's time-varying power trace; Analytic returns a variant
// using the constant analytic profile instead.
type GPU struct {
	name     string
	dev      *gpusim.Device
	analytic bool
}

// NewGPU wraps a gpusim device under the given registry name, in traced
// (block-scheduler power profile) mode.
func NewGPU(name string, dev *gpusim.Device) (*GPU, error) {
	if name == "" {
		return nil, errors.New("device: GPU needs a name")
	}
	if dev == nil || dev.Spec == nil {
		return nil, errors.New("device: nil gpusim device")
	}
	return &GPU{name: name, dev: dev}, nil
}

// Name implements Device.
func (g *GPU) Name() string { return g.name }

// Kind implements Device.
func (g *GPU) Kind() string { return "gpu" }

// Spec implements Device.
func (g *GPU) Spec() Spec {
	return Spec{
		CatalogName: g.dev.Spec.Name,
		IdlePowerW:  g.dev.Spec.IdlePowerW,
		TDPWatts:    g.dev.Spec.TDPWatts,
	}
}

// Analytic implements AnalyticProvider: same device, constant analytic
// power profile instead of the scheduler trace.
func (g *GPU) Analytic() Device {
	return &GPU{name: g.name, dev: g.dev, analytic: true}
}

// GPUPoint is one dense-family configuration: the paper's three decision
// variables.
type GPUPoint struct {
	C gpusim.MatMulConfig
}

// Key implements Config, e.g. "bs=24/g=1/r=8".
func (p GPUPoint) Key() string {
	return "bs=" + strconv.Itoa(p.C.BS) + "/g=" + strconv.Itoa(p.C.G) + "/r=" + strconv.Itoa(p.C.R)
}

// String implements Config with the paper's notation.
func (p GPUPoint) String() string { return p.C.String() }

// FFTPoint is the single configuration of the GPU FFT family.
type FFTPoint struct{}

// Key implements Config.
func (FFTPoint) Key() string { return "fft" }

// String implements Config.
func (FFTPoint) String() string { return "(fft)" }

// SpMVPoint is one SpMV-family configuration: the CSR-vector lane count.
type SpMVPoint struct {
	Lanes int
}

// Key implements Config, e.g. "lanes=8".
func (p SpMVPoint) Key() string { return "lanes=" + strconv.Itoa(p.Lanes) }

// String implements Config.
func (p SpMVPoint) String() string { return "(" + p.Key() + ")" }

// StencilPoint is one stencil-family configuration: the shared-memory
// tile edge.
type StencilPoint struct {
	Tile int
}

// Key implements Config, e.g. "tile=16".
func (p StencilPoint) Key() string { return "tile=" + strconv.Itoa(p.Tile) }

// String implements Config.
func (p StencilPoint) String() string { return "(" + p.Key() + ")" }

// CompoundPoint is the single configuration of the compound family: one
// SpMV at the canonical lane count followed by one stencil sweep at the
// canonical tile.
type CompoundPoint struct{}

// Key implements Config.
func (CompoundPoint) Key() string { return "compound" }

// String implements Config.
func (CompoundPoint) String() string { return "(spmv+stencil)" }

// gpuApp is one GPU application family: its configuration space, how
// one of its configurations runs, and the configuration a heterogeneous
// ensemble member runs units instances at (bs is the member's dense
// block size; nil when the family cannot be distributed).
type gpuApp struct {
	configs func(g *GPU, w Workload) ([]Config, error)
	run     func(g *GPU, w Workload, c Config) (*Outcome, error)
	unit    func(bs, units int) Config
}

// gpuApps is the GPU's application-family table; a new family is one
// entry. It is filled in init rather than by a package-level
// initializer so that epvet's call graph, which walks function bodies,
// sees the run functions behind GPU.Run.
var gpuApps map[string]gpuApp

func init() {
	gpuApps = map[string]gpuApp{
		AppDense: {
			configs: gpuDenseConfigs,
			run:     gpuDenseRun,
			unit: func(bs, units int) Config {
				return GPUPoint{C: gpusim.MatMulConfig{BS: bs, G: 1, R: units}}
			},
		},
		AppFFT: {
			configs: func(g *GPU, w Workload) ([]Config, error) {
				if w.N < 2 {
					return nil, fmt.Errorf("device: FFT size %d must be >= 2", w.N)
				}
				return []Config{FFTPoint{}}, nil
			},
			run: func(g *GPU, w Workload, c Config) (*Outcome, error) {
				if _, ok := c.(FFTPoint); !ok {
					return nil, configMismatch(g, c)
				}
				r, err := g.dev.RunFFT2D(w.N)
				if err != nil {
					return nil, err
				}
				return g.repeat(w, r), nil
			},
		},
		AppSpMV: {
			configs: func(g *GPU, w Workload) ([]Config, error) {
				var out []Config
				for _, l := range gpusim.SpMVLaneSpace() {
					out = append(out, SpMVPoint{Lanes: l})
				}
				return out, nil
			},
			run: func(g *GPU, w Workload, c Config) (*Outcome, error) {
				p, ok := c.(SpMVPoint)
				if !ok {
					return nil, configMismatch(g, c)
				}
				r, err := g.dev.RunSpMV(w.N, p.Lanes)
				if err != nil {
					return nil, err
				}
				return g.repeat(w, r), nil
			},
			unit: func(int, int) Config { return SpMVPoint{Lanes: gpusim.DefaultSpMVLanes} },
		},
		AppStencil: {
			configs: func(g *GPU, w Workload) ([]Config, error) {
				var out []Config
				for _, t := range gpusim.StencilTileSpace() {
					if t <= w.N {
						out = append(out, StencilPoint{Tile: t})
					}
				}
				if len(out) == 0 {
					return nil, fmt.Errorf("device: stencil grid %d smaller than every tile on %s", w.N, g.name)
				}
				return out, nil
			},
			run: func(g *GPU, w Workload, c Config) (*Outcome, error) {
				p, ok := c.(StencilPoint)
				if !ok {
					return nil, configMismatch(g, c)
				}
				r, err := g.dev.RunStencil(w.N, p.Tile)
				if err != nil {
					return nil, err
				}
				return g.repeat(w, r), nil
			},
			unit: func(int, int) Config { return StencilPoint{Tile: gpusim.DefaultStencilTile} },
		},
		AppCompound: {
			configs: func(g *GPU, w Workload) ([]Config, error) {
				if w.N < gpusim.DefaultStencilTile {
					return nil, fmt.Errorf("device: compound grid %d must be >= %d on %s", w.N, gpusim.DefaultStencilTile, g.name)
				}
				return []Config{CompoundPoint{}}, nil
			},
			run: func(g *GPU, w Workload, c Config) (*Outcome, error) {
				if _, ok := c.(CompoundPoint); !ok {
					return nil, configMismatch(g, c)
				}
				sp, err := g.dev.RunSpMV(w.N, gpusim.DefaultSpMVLanes)
				if err != nil {
					return nil, err
				}
				st, err := g.dev.RunStencil(w.N, gpusim.DefaultStencilTile)
				if err != nil {
					return nil, err
				}
				// Both phases back to back per product: a two-segment
				// staircase whose energy is exactly the sum of the phases.
				return g.repeat(w, sp, st), nil
			},
			unit: func(int, int) Config { return CompoundPoint{} },
		},
	}
}

// gpuDenseConfigs enumerates the paper's (BS, G, R) triples.
func gpuDenseConfigs(g *GPU, w Workload) ([]Config, error) {
	raw, err := g.dev.EnumerateConfigs(gpusim.MatMulWorkload{N: w.N, Products: w.Products})
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("device: %s admits no configurations for %v", g.name, w)
	}
	out := make([]Config, len(raw))
	for i, c := range raw {
		out[i] = GPUPoint{C: c}
	}
	return out, nil
}

// gpuDenseRun runs one (BS, G, R) triple, through the block scheduler
// unless the device is in analytic mode. The kernel itself covers all
// Products instances.
func gpuDenseRun(g *GPU, w Workload, c Config) (*Outcome, error) {
	p, ok := c.(GPUPoint)
	if !ok {
		return nil, configMismatch(g, c)
	}
	mw := gpusim.MatMulWorkload{N: w.N, Products: w.Products}
	idle := g.dev.Spec.IdlePowerW
	if g.analytic {
		r, err := g.dev.RunMatMul(mw, p.C)
		if err != nil {
			return nil, err
		}
		return &Outcome{TrueSeconds: r.Seconds, TrueEnergyJ: r.DynEnergyJ, Run: r.Run(idle)}, nil
	}
	r, err := g.dev.RunMatMulTraced(mw, p.C)
	if err != nil {
		return nil, err
	}
	return &Outcome{TrueSeconds: r.TraceSeconds, TrueEnergyJ: r.TraceEnergyJ, Run: r.Run(idle)}, nil
}

// repeat is the outcome of the workload's instances running the kernel
// sequence rs back to back.
func (g *GPU) repeat(w Workload, rs ...*gpusim.Result) *Outcome {
	phases := make([]phase, len(rs))
	for i, r := range rs {
		phases[i] = phase{r.Seconds, r.DynPowerW, r.DynEnergyJ}
	}
	return repeat(g.dev.Spec.IdlePowerW, w.Products, phases...)
}

// Configs implements Device.
func (g *GPU) Configs(w Workload) ([]Config, error) {
	w = w.Normalized()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	app, ok := gpuApps[w.App]
	if !ok {
		return nil, fmt.Errorf("device: %s cannot run application %q", g.name, w.App)
	}
	return app.configs(g, w)
}

// Run implements Device.
func (g *GPU) Run(ctx context.Context, w Workload, c Config) (*Outcome, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	w = w.Normalized()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	app, ok := gpuApps[w.App]
	if !ok {
		return nil, configMismatch(g, c)
	}
	return app.run(g, w, c)
}
