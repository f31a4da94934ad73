package gpusim

import (
	"fmt"
	"strconv"

	"energyprop/internal/meter"
)

// MatMulWorkload is the problem every configuration must solve: Products
// matrix products C = A·B of two dense N×N matrices. Configurations with
// G·R == Products all perform exactly the same work, which is what makes
// them comparable under the weak-EP definition.
type MatMulWorkload struct {
	// N is the square matrix dimension.
	N int
	// Products is the total number of matrix products (G·R).
	Products int
}

// Validate checks the workload.
func (w MatMulWorkload) Validate() error {
	if w.N < 1 {
		return fmt.Errorf("gpusim: workload N=%d must be >= 1", w.N)
	}
	if w.Products < 1 {
		return fmt.Errorf("gpusim: workload Products=%d must be >= 1", w.Products)
	}
	return nil
}

// MatMulConfig is an application configuration: the paper's three decision
// variables.
type MatMulConfig struct {
	// BS is the per-block shared-memory dimension (1..32); one product
	// uses 2·BS²·8 bytes of shared memory.
	BS int
	// G is the group size: the number of device matrix-product codes
	// repeated textually inside the kernel (1..8).
	G int
	// R is the number of runs of a group.
	R int
}

// String renders the configuration as the paper writes it.
func (c MatMulConfig) String() string {
	return "(BS=" + strconv.Itoa(c.BS) + ", G=" + strconv.Itoa(c.G) + ", R=" + strconv.Itoa(c.R) + ")"
}

// ValidateConfig checks a configuration against a workload on this device:
// BS and G ranges, the shared-memory capacity constraint that makes only
// certain (G, R) combinations permissible for a given BS, and G·R ==
// Products.
func (d *Device) ValidateConfig(w MatMulWorkload, c MatMulConfig) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if c.BS < 1 || c.BS > MaxBS {
		return fmt.Errorf("gpusim: BS=%d out of range 1..%d", c.BS, MaxBS)
	}
	if c.G < 1 || c.G > MaxG {
		return fmt.Errorf("gpusim: G=%d out of range 1..%d", c.G, MaxG)
	}
	if c.R < 1 {
		return fmt.Errorf("gpusim: R=%d must be >= 1", c.R)
	}
	if c.G*c.R != w.Products {
		return fmt.Errorf("gpusim: config %v solves %d products, workload needs %d", c, c.G*c.R, w.Products)
	}
	if c.BS > w.N {
		return fmt.Errorf("gpusim: BS=%d exceeds N=%d", c.BS, w.N)
	}
	smem := c.G * 2 * c.BS * c.BS * 8
	if smem > d.Spec.SharedMemPerBlockBytes {
		return fmt.Errorf("gpusim: config %v needs %d B shared memory per block, device limit %d B",
			c, smem, d.Spec.SharedMemPerBlockBytes)
	}
	return nil
}

// EnumerateConfigs returns every valid configuration for the workload on
// this device, ordered by (BS, G) — the full sweep the paper's Section IV
// application executes ("for a given matrix size N, the application is
// executed for all the possible combinations (BS, G, R)").
func (d *Device) EnumerateConfigs(w MatMulWorkload) ([]MatMulConfig, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	var out []MatMulConfig
	for bs := 1; bs <= MaxBS && bs <= w.N; bs++ {
		for g := 1; g <= MaxG; g++ {
			if w.Products%g != 0 {
				continue
			}
			c := MatMulConfig{BS: bs, G: g, R: w.Products / g}
			if d.ValidateConfig(w, c) == nil {
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// Result is the simulated outcome of one kernel run — the single result
// shape of every application family (matmul, CUBLAS, FFT, SpMV,
// stencil): the quantities the paper plots for every data point. The
// matmul-only fields (Config, Power, FetchEngineActive, Profile) are zero
// for the other families, and the trace fields are set only by
// RunMatMulTraced.
type Result struct {
	// Workload is the solved problem; the single-kernel families report
	// their size as N with Products 1.
	Workload MatMulWorkload
	Config   MatMulConfig
	// Work is the flop count of the whole run.
	Work float64
	// Seconds is the kernel execution time (the paper measures only the
	// CUDA kernel invocations).
	Seconds float64
	// DynPowerW is the average dynamic power during the kernel.
	DynPowerW float64
	// DynEnergyJ is the dynamic energy of the kernel.
	DynEnergyJ float64
	// Power itemizes the dynamic power.
	Power PowerBreakdown
	// FetchEngineActive reports whether the Fig 6 component drew power.
	FetchEngineActive bool
	// GFLOPs is the achieved throughput over the whole run.
	GFLOPs float64
	// Profile is the underlying kernel model evaluation.
	Profile KernelProfile
	// Trace is the block scheduler's piecewise-constant dynamic power
	// profile; nil for an analytic result.
	Trace []TracePoint
	// TraceSeconds is the scheduled makespan (it can differ slightly from
	// the analytic Seconds because of wave quantization and the fill
	// stagger).
	TraceSeconds float64
	// TraceEnergyJ integrates the trace.
	TraceEnergyJ float64
}

// RunMatMul executes (analytically) the workload under the given
// configuration and returns its time/power/energy account.
func (d *Device) RunMatMul(w MatMulWorkload, c MatMulConfig) (*Result, error) {
	if err := d.ValidateConfig(w, c); err != nil {
		return nil, err
	}
	p := d.profileMatMul(w.N, c.BS, c.G)
	kernelSeconds := float64(w.Products) * p.SecondsPerProduct
	seconds := kernelSeconds + d.cal.launchOverheadS

	pw := d.powerFor(p)
	duty := d.fetchEngineDuty(w.N, c.G)
	pw.FetchW = d.Spec.FetchEnginePowerW * duty

	energy := pw.TotalW() * seconds
	work := float64(w.Products) * p.FlopsPerProduct
	return &Result{
		Workload:          w,
		Config:            c,
		Work:              work,
		Seconds:           seconds,
		DynPowerW:         pw.TotalW(),
		DynEnergyJ:        energy,
		Power:             pw,
		FetchEngineActive: duty > 0,
		GFLOPs:            work / seconds / 1e9,
		Profile:           p,
	}, nil
}

// kernelResult is the Result of a single-kernel family: one run of size
// n doing work flops in seconds at the given dynamic power.
func kernelResult(n int, work, seconds, powerW float64) *Result {
	return &Result{
		Workload:   MatMulWorkload{N: n, Products: 1},
		Work:       work,
		Seconds:    seconds,
		DynPowerW:  powerW,
		DynEnergyJ: powerW * seconds,
		GFLOPs:     work / seconds / 1e9,
	}
}

// Run adapts the result to a meter.Run so the WattsUp-style measurement
// pipeline (idle baseline + sampling noise + the statistical loop) can
// observe it end to end: the scheduler's temporal profile (ramp, steady
// state, tail) for a traced result, a constant profile otherwise.
func (r *Result) Run(idlePowerW float64) meter.Run {
	if r.Trace == nil {
		return meter.ConstantRun{Seconds: r.Seconds, Watts: idlePowerW + r.DynPowerW}
	}
	seg := meter.NewSegmentRun(len(r.Trace))
	for i := 0; i < len(r.Trace); i++ {
		end := r.TraceSeconds
		if i+1 < len(r.Trace) {
			end = r.Trace[i+1].Seconds
		}
		seg.AddSegment(end-r.Trace[i].Seconds, idlePowerW+r.Trace[i].PowerW)
	}
	return seg
}

// Sweep runs every valid configuration of the workload, one after
// another, and returns the results in enumeration order (by BS, then
// G). Parallel, cancellable sweeps go through campaign.Stream with
// Spec.ModelTrue on the device.GPU adapter's Analytic variant, which
// yields the same numbers.
func (d *Device) Sweep(w MatMulWorkload) ([]*Result, error) {
	configs, err := d.EnumerateConfigs(w)
	if err != nil {
		return nil, err
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("gpusim: workload %+v admits no valid configuration", w)
	}
	out := make([]*Result, len(configs))
	for i, c := range configs {
		if out[i], err = d.RunMatMul(w, c); err != nil {
			return nil, err
		}
	}
	return out, nil
}
