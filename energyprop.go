// Package energyprop is a Go reproduction of "On Energy Nonproportionality
// of CPUs and GPUs" (Manumachu & Lastovetsky, 2022): formal strong/weak
// energy-proportionality (EP) definitions and analyzers, the two-core
// nonproportionality theorem, bi-objective (dynamic energy × performance)
// Pareto optimization, and calibrated machine models of the paper's
// platforms — a dual-socket Intel Haswell CPU, an Nvidia K40c, and an
// Nvidia P100 PCIe — together with the WattsUp-style measurement
// methodology (confidence-driven repetition, Student's t, Pearson χ²).
//
// This file is the public facade: the types and constructors a downstream
// user needs, re-exported from the internal packages. The experiment
// harness regenerating every table and figure of the paper lives in
// internal/experiment and is driven by cmd/epstudy.
//
// Quick start:
//
//	dev := energyprop.NewP100()
//	sweep, _ := dev.Sweep(energyprop.MatMulWorkload{N: 10240, Products: 8})
//	var pts []energyprop.Point
//	for _, r := range sweep {
//		pts = append(pts, energyprop.Point{
//			Label: r.Config.String(), Time: r.Seconds, Energy: r.DynEnergyJ,
//		})
//	}
//	rep, _ := energyprop.AnalyzeWeakEP(pts, 0.025)
//	fmt.Println(rep.OpportunityExists, rep.BestTradeOff.EnergySavingPct)
package energyprop

import (
	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/device"
	"energyprop/internal/ep"
	"energyprop/internal/gpusim"
	"energyprop/internal/hetero"
	"energyprop/internal/hw"
	"energyprop/internal/meter"
	"energyprop/internal/optimize"
	"energyprop/internal/pareto"
	"energyprop/internal/stats"
)

// Bi-objective optimization types (see internal/pareto).
type (
	// Point is one configuration's (execution time, dynamic energy)
	// outcome; both objectives are minimized.
	Point = pareto.Point
	// TradeOff expresses a front point as "X% energy saving at Y%
	// performance degradation".
	TradeOff = pareto.TradeOff
)

// Front returns the global Pareto front of the points, sorted by time.
func Front(points []Point) []Point { return pareto.Front(points) }

// Ranks performs non-dominated sorting: rank 0 is the global front, rank 1
// the paper's "local" front, and so on.
func Ranks(points []Point) [][]Point { return pareto.Ranks(points) }

// TradeOffs expresses every front point relative to the front's
// time-optimal point.
func TradeOffs(front []Point) ([]TradeOff, error) { return pareto.TradeOffs(front) }

// BestTradeOff returns the front's maximum energy saving and its cost.
func BestTradeOff(front []Point) (TradeOff, error) { return pareto.BestTradeOff(front) }

// EP analysis types (see internal/ep).
type (
	// StrongEPReport is the verdict on an energy-versus-work series.
	StrongEPReport = ep.StrongEPReport
	// WeakEPReport is the verdict on same-workload configurations plus
	// the bi-objective opportunity a violation opens.
	WeakEPReport = ep.WeakEPReport
	// TwoCoreModel is the Section III simple-EP two-core system.
	TwoCoreModel = ep.TwoCoreModel
)

// AnalyzeStrongEP tests E_d = c·W on paired (work, energy) observations.
func AnalyzeStrongEP(work, energy []float64, tol float64) (*StrongEPReport, error) {
	return ep.AnalyzeStrongEP(work, energy, tol)
}

// AnalyzeWeakEP tests whether dynamic energy is constant across
// same-workload configurations and quantifies the trade-off opportunity.
func AnalyzeWeakEP(points []Point, tol float64) (*WeakEPReport, error) {
	return ep.AnalyzeWeakEP(points, tol)
}

// Machine models (see internal/gpusim, internal/cpusim, internal/hw).
type (
	// GPUDevice is a simulated GPU (K40c or P100 calibration).
	GPUDevice = gpusim.Device
	// MatMulWorkload is the paper's GPU workload: Products matrix
	// products of size N×N.
	MatMulWorkload = gpusim.MatMulWorkload
	// MatMulConfig is the paper's (BS, G, R) decision-variable triple.
	MatMulConfig = gpusim.MatMulConfig
	// GPUResult is one GPU configuration's simulated outcome.
	GPUResult = gpusim.Result
	// CPUMachine is the simulated dual-socket Haswell node.
	CPUMachine = cpusim.Machine
	// GEMMApp is one Fig 4 CPU configuration (N, threadgroups, variant).
	GEMMApp = cpusim.GEMMApp
	// CPUResult is one CPU configuration's simulated outcome.
	CPUResult = cpusim.Result
	// ThreadgroupConfig is the (partition, groups, threads) triple.
	ThreadgroupConfig = dense.Config
)

// NewK40c returns the simulated Nvidia K40c of Table I.
func NewK40c() *GPUDevice { return gpusim.NewK40c() }

// NewP100 returns the simulated Nvidia P100 PCIe of Table I.
func NewP100() *GPUDevice { return gpusim.NewP100() }

// NewHaswell returns the simulated Intel Haswell dual-socket node of
// Table I.
func NewHaswell() *CPUMachine { return cpusim.NewHaswell() }

// HaswellSpec, K40cSpec, and P100Spec expose the Table I specifications.
func HaswellSpec() *hw.CPUSpec { return hw.Haswell() }

// K40cSpec returns the Table I K40c specification.
func K40cSpec() *hw.GPUSpec { return hw.K40c() }

// P100Spec returns the Table I P100 specification.
func P100Spec() *hw.GPUSpec { return hw.P100() }

// Measurement methodology (see internal/meter, internal/stats).
type (
	// Meter is the WattsUp-Pro-style sampled power meter.
	Meter = meter.Meter
	// MeasureSpec configures the confidence-driven measurement loop.
	MeasureSpec = stats.MeasureSpec
	// Measurement is the loop's outcome.
	Measurement = stats.Measurement
)

// NewMeter returns a meter with the given idle power and seed.
func NewMeter(idlePowerW float64, seed int64) *Meter { return meter.NewMeter(idlePowerW, seed) }

// DefaultMeasureSpec returns the paper's methodology: 95% confidence, 2.5%
// precision, Pearson χ² normality validation.
func DefaultMeasureSpec() MeasureSpec { return stats.DefaultMeasureSpec() }

// Measure repeats an observation until its sample mean meets the spec.
func Measure(spec MeasureSpec, observe func() (float64, error)) (*Measurement, error) {
	return stats.Measure(spec, observe)
}

// Bi-objective solution methods (see internal/optimize, internal/hetero).
type (
	// ProcessorProfile is a processor's discrete time/energy tables for
	// the workload-distribution solver.
	ProcessorProfile = optimize.ProcessorProfile
	// Distribution is one Pareto-optimal workload split.
	Distribution = optimize.Distribution
	// HeteroProcessor abstracts a device solving integer workload units.
	HeteroProcessor = hetero.Processor
)

// CheapestWithin picks the lowest-energy point within a performance
// budget (percent slower than the fastest point).
func CheapestWithin(points []Point, maxDegradationPct float64) (Point, error) {
	return optimize.CheapestWithin(points, maxDegradationPct)
}

// DistributeWorkload computes the Pareto-optimal distributions of n units
// across processors with discrete time/energy profiles.
func DistributeWorkload(n int, procs []*ProcessorProfile) ([]Distribution, error) {
	return optimize.DistributeWorkload(n, procs)
}

// PaperPlatform returns the paper's Fig 1 device ensemble (Haswell, K40c,
// P100) ready for workload distribution.
func PaperPlatform(unitN int) []HeteroProcessor {
	return device.PaperPlatform(device.AppDense, unitN)
}

// DistributeAcross profiles the processors and returns the Pareto-optimal
// distributions of totalUnits across them.
func DistributeAcross(procs []HeteroProcessor, totalUnits int) ([]Distribution, error) {
	return hetero.Distribute(procs, totalUnits)
}
