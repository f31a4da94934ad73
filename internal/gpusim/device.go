// Package gpusim is the GPU machine model standing in for the paper's
// Nvidia K40c and P100 PCIe boards (see DESIGN.md for the substitution
// argument). It executes an analytic model of the paper's Fig 5 kernel —
// the blocked matrix multiplication from the CUDA programming guide with
// per-block shared-memory dimension BS, group size G (device codes
// repeated textually), and run count R — and reports per-configuration
// execution time, dynamic power, and dynamic energy.
//
// The model has two layers:
//
//   - Mechanisms (kernel.go): occupancy from threads/shared-memory limits,
//     warp quantization, latency hiding, a compute/memory roofline with an
//     L2 reuse bonus for small block sizes, wave tail and boundary-tile
//     efficiency, instruction-cache pressure from textual group
//     repetition, and a component power model (FP64 pipes with a
//     boost-clock term, DRAM, shared-memory banks, kernel-active base,
//     fetch engine).
//
//   - Magnitudes (this file): per-device calibration. The paper measures
//     the GPUs' energy behaviour but explicitly leaves its mechanism to
//     future work (Section V.C), so each device carries an explicit
//     measured profile — per-BS performance and dynamic-energy targets at
//     a reference workload — from which the factory solves the model's
//     modifier tables. Away from the reference workload the mechanisms
//     (occupancy, boundary tiles, wave tails, fetch engine) provide the
//     workload-to-workload variation the paper reports.
package gpusim

import (
	"fmt"
	"math"

	"energyprop/internal/hw"
)

// warpSize is the CUDA warp width.
const warpSize = 32

// MaxBS is the largest per-block shared-memory dimension the application
// supports (a 32×32 block is 1024 threads, the hardware block limit).
const MaxBS = 32

// MaxG is the largest group size the application's generated code
// provides (dgemmG1 … dgemmG8 in Fig 5).
const MaxG = 8

// calibration holds every tunable magnitude of the machine model.
type calibration struct {
	// smemPerSMBytes is the shared memory available per SM (not per
	// block), which co-limits resident blocks.
	smemPerSMBytes int
	// maxBlocksPerSM is the hardware resident-block limit.
	maxBlocksPerSM int
	// kernelEff is the instruction-mix ceiling of the Fig 5 kernel: two
	// shared-memory reads feed every FMA, so roughly half the FP64 issue
	// slots are usable.
	kernelEff float64
	// latencyHalfOcc shapes latency hiding: efficiency = occ/(occ+h).
	latencyHalfOcc float64
	// l2ReuseAmp and l2ReuseDecay give small-BS kernels an L2 reuse bonus:
	// reuse = 1 + amp·exp(−BS/decay).
	l2ReuseAmp, l2ReuseDecay float64
	// icachePerGroup is the per-extra-group slowdown from textual code
	// repetition.
	icachePerGroup float64
	// groupPowerPerExtra is the per-extra-group core-power inflation from
	// textual code repetition (register pressure, fetch replays).
	groupPowerPerExtra float64
	// launchOverheadS is the fixed kernel-launch cost.
	launchOverheadS float64
	// boostK and boostExp shape the boost-clock power term:
	// boost = 1 + K·(perf/attainable)^exp.
	boostK, boostExp float64
	// perfMod and powerMod are the per-BS calibration tables (index 1..32;
	// index 0 unused), solved by calibrate() from the device's measured
	// profile.
	perfMod, powerMod [MaxBS + 1]float64
}

// measuredProfile is a device's measured behaviour at the reference
// workload, as the paper's figures report it: achieved GFLOPs and dynamic
// energy per block size in the trade-off region (BS 21..32), plus the
// anchor describing the proportional region below it.
type measuredProfile struct {
	// refN and refProducts define the reference workload the targets were
	// taken at.
	refN, refProducts int
	// perfGF maps BS in [21,32] to the achieved GFLOPs target.
	perfGF map[int]float64
	// energyJ maps BS in [21,32] to the dynamic-energy target for the
	// whole reference workload.
	energyJ map[int]float64
	// anchorBS and anchorEnergyJ pin the proportional region: for BS <=
	// anchorBS the energy target follows
	// E(bs) = anchorEnergyJ · (t(bs)/t(anchorBS))^anchorExp,
	// which makes dynamic energy increase monotonically with execution
	// time — the paper's "region where optimizing for performance
	// optimizes for dynamic energy".
	anchorBS      int
	anchorEnergyJ float64
	anchorExp     float64
}

// Device is one simulated GPU: a Table I spec plus its calibration.
type Device struct {
	Spec *hw.GPUSpec
	cal  calibration
	// fetchDisabled is the Fig 6 ablation switch (see ablation.go).
	fetchDisabled bool
	// jitter is the block scheduler's per-slot drain-rate table, one
	// entry per block slot the device can hold (see schedule.go).
	jitter []float64
}

// NewDevice builds a simulated device for a catalog spec. Specs whose name
// matches the paper's K40c or P100 receive their measured-profile
// calibrations; any other spec receives the neutral generic calibration
// (useful for tests).
func NewDevice(spec *hw.GPUSpec) (*Device, error) {
	if spec == nil {
		return nil, fmt.Errorf("gpusim: nil spec")
	}
	if spec.SMs <= 0 || spec.MaxThreadsPerSM <= 0 || spec.PeakGFLOPsFP64 <= 0 ||
		spec.MemBandwidthGBs <= 0 || spec.SharedMemPerBlockBytes <= 0 {
		return nil, fmt.Errorf("gpusim: spec %q has non-positive machine parameters", spec.Name)
	}
	d := &Device{Spec: spec}
	switch spec.Name {
	case hw.K40c().Name:
		d.cal = k40cCalibration()
		d.calibrate(k40cProfile())
	case hw.P100().Name:
		d.cal = p100Calibration()
		d.calibrate(p100Profile())
	default:
		d.cal = genericCalibration()
	}
	d.jitter = jitterFor(spec.SMs * max(1, d.cal.maxBlocksPerSM))
	return d, nil
}

// NewK40c returns the simulated Nvidia K40c.
func NewK40c() *Device {
	d, err := NewDevice(hw.K40c())
	if err != nil {
		panic(err) // catalog specs are always valid
	}
	return d
}

// NewP100 returns the simulated Nvidia P100 PCIe.
func NewP100() *Device {
	d, err := NewDevice(hw.P100())
	if err != nil {
		panic(err)
	}
	return d
}

// MeasuredProfile is the public form of a device's measured behaviour, for
// users calibrating their own GPU: achieved GFLOPs and dynamic energy per
// block size in the trade-off region at a reference workload, plus the
// proportional-region anchor. See k40cProfile/p100Profile for the paper
// devices' values.
type MeasuredProfile struct {
	// RefN and RefProducts define the reference workload the targets were
	// measured at.
	RefN, RefProducts int
	// PerfGF maps block sizes to achieved GFLOPs targets.
	PerfGF map[int]float64
	// EnergyJ maps block sizes to dynamic-energy targets for the whole
	// reference workload.
	EnergyJ map[int]float64
	// AnchorBS, AnchorEnergyJ, and AnchorExp pin the proportional region:
	// for BS <= AnchorBS the energy target follows
	// E(bs) = AnchorEnergyJ · (t(bs)/t(AnchorBS))^AnchorExp.
	AnchorBS      int
	AnchorEnergyJ float64
	AnchorExp     float64
}

// Validate checks the profile's structure.
func (mp *MeasuredProfile) Validate() error {
	if mp.RefN < 1 || mp.RefProducts < 1 {
		return fmt.Errorf("gpusim: profile reference workload (%d, %d) invalid", mp.RefN, mp.RefProducts)
	}
	if len(mp.EnergyJ) == 0 {
		return fmt.Errorf("gpusim: profile has no energy targets")
	}
	for bs, e := range mp.EnergyJ {
		if bs < 1 || bs > MaxBS || e <= 0 {
			return fmt.Errorf("gpusim: energy target at BS=%d (%v J) invalid", bs, e)
		}
	}
	for bs, p := range mp.PerfGF {
		if bs < 1 || bs > MaxBS || p <= 0 {
			return fmt.Errorf("gpusim: perf target at BS=%d (%v GF) invalid", bs, p)
		}
	}
	if mp.AnchorBS != 0 && (mp.AnchorBS < 1 || mp.AnchorBS > MaxBS || mp.AnchorEnergyJ <= 0) {
		return fmt.Errorf("gpusim: anchor (BS=%d, %v J) invalid", mp.AnchorBS, mp.AnchorEnergyJ)
	}
	return nil
}

// NewDeviceWithProfile builds a simulated device for an arbitrary GPU spec
// calibrated to the caller's own measured profile — the path a downstream
// user takes to model a board the catalog does not cover.
func NewDeviceWithProfile(spec *hw.GPUSpec, profile MeasuredProfile) (*Device, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	// Build with the generic mechanisms (bypassing the catalog switch),
	// then solve the modifier tables against the caller's profile.
	if spec == nil {
		return nil, fmt.Errorf("gpusim: nil spec")
	}
	if spec.SMs <= 0 || spec.MaxThreadsPerSM <= 0 || spec.PeakGFLOPsFP64 <= 0 ||
		spec.MemBandwidthGBs <= 0 || spec.SharedMemPerBlockBytes <= 0 {
		return nil, fmt.Errorf("gpusim: spec %q has non-positive machine parameters", spec.Name)
	}
	d := &Device{Spec: spec, cal: genericCalibration()}
	d.calibrate(measuredProfile{
		refN: profile.RefN, refProducts: profile.RefProducts,
		perfGF: profile.PerfGF, energyJ: profile.EnergyJ,
		anchorBS: profile.AnchorBS, anchorEnergyJ: profile.AnchorEnergyJ,
		anchorExp: profile.AnchorExp,
	})
	d.jitter = jitterFor(spec.SMs * max(1, d.cal.maxBlocksPerSM))
	return d, nil
}

// genericCalibration is a neutral model with flat modifier tables.
func genericCalibration() calibration {
	c := calibration{
		smemPerSMBytes:     48 * 1024,
		maxBlocksPerSM:     16,
		kernelEff:          0.5,
		latencyHalfOcc:     0.02,
		l2ReuseAmp:         3,
		l2ReuseDecay:       4,
		icachePerGroup:     0.003,
		groupPowerPerExtra: 0.02,
		launchOverheadS:    1e-4,
		boostK:             0.4,
		boostExp:           3,
	}
	for bs := 1; bs <= MaxBS; bs++ {
		c.perfMod[bs] = 1
		c.powerMod[bs] = 1
	}
	return c
}

func k40cCalibration() calibration {
	c := genericCalibration()
	c.smemPerSMBytes = 48 * 1024
	c.maxBlocksPerSM = 16
	c.boostK = 0.35
	return c
}

func p100Calibration() calibration {
	c := genericCalibration()
	c.smemPerSMBytes = 64 * 1024
	c.maxBlocksPerSM = 32
	c.boostK = 0.6
	return c
}

// k40cProfile encodes the K40c's defining measured behaviour (paper Fig 7,
// Section V.C): the fastest configuration BS=32 is also the lowest-energy
// one — the global Pareto front is a single point — while the BS 21..31
// region alternates between two shared-memory replay regimes, producing a
// local (region) Pareto front of about five points with up to ~18% energy
// saving at ~7% performance degradation.
func k40cProfile() measuredProfile {
	perf := map[int]float64{32: 675}
	for bs := 21; bs <= 31; bs++ {
		perf[bs] = 610 + float64(bs-21)*58/11
	}
	return measuredProfile{
		refN: 10240, refProducts: 8,
		perfGF: perf,
		energyJ: map[int]float64{
			21: 2300, 22: 2260, 23: 2215, 24: 2350, 25: 2340, 26: 2470,
			27: 2460, 28: 2590, 29: 2580, 30: 2710, 31: 2700, 32: 2150,
		},
		anchorBS: 20, anchorEnergyJ: 2320, anchorExp: 0.92,
	}
}

// p100Profile encodes the P100's defining measured behaviour (paper Figs 2
// and 8): performance keeps improving up to BS=32 but core power rises
// sharply past BS≈24 (boost clocks plus 64-bit shared-bank replays), so
// the energy staircase drops at BS=28 and bottoms at BS=24 — a global
// Pareto front of three points with ~50% dynamic-energy savings at ~11%
// performance degradation.
func p100Profile() measuredProfile {
	perf := map[int]float64{}
	for bs := 21; bs <= 32; bs++ {
		perf[bs] = 2000 + float64(bs-21)*300/11
	}
	return measuredProfile{
		refN: 10240, refProducts: 8,
		perfGF: perf,
		energyJ: map[int]float64{
			21: 820, 22: 790, 23: 750, 24: 665, 25: 1060, 26: 1035,
			27: 1010, 28: 975, 29: 1420, 30: 1400, 31: 1380, 32: 1330,
		},
		anchorBS: 20, anchorEnergyJ: 730, anchorExp: 0.92,
	}
}

// calibrate solves the perfMod and powerMod tables so the device
// reproduces its measured profile at the reference workload. It first sets
// perfMod from the mechanism model's raw throughput, then inverts the
// component power model for each block size to hit the energy target.
func (d *Device) calibrate(mp measuredProfile) {
	spec, cal := d.Spec, &d.cal
	// Pass 1: performance targets (trade-off region only; the
	// proportional region keeps the mechanism throughput).
	for bs := 1; bs <= MaxBS; bs++ {
		cal.perfMod[bs] = 1
	}
	for bs, target := range mp.perfGF {
		mech := d.profileMatMul(mp.refN, bs, 1).AchievedGFLOPs
		if mech > 0 {
			cal.perfMod[bs] = target / mech
		}
	}
	// Pass 2: energy targets. With perfMod applied, compute each block
	// size's reference time, derive its power target E/t, and invert the
	// power model for powerMod.
	anchorT := 0.0
	if mp.anchorBS >= 1 {
		p := d.profileMatMul(mp.refN, mp.anchorBS, 1)
		anchorT = float64(mp.refProducts) * p.SecondsPerProduct
	}
	attainable := spec.PeakGFLOPsFP64 * cal.kernelEff
	for bs := 1; bs <= MaxBS; bs++ {
		p := d.profileMatMul(mp.refN, bs, 1)
		t := float64(mp.refProducts) * p.SecondsPerProduct
		var energyTarget float64
		if e, ok := mp.energyJ[bs]; ok {
			energyTarget = e
		} else if anchorT > 0 {
			energyTarget = mp.anchorEnergyJ * math.Pow(t/anchorT, mp.anchorExp)
		} else {
			continue
		}
		powerTarget := energyTarget / t
		uPipes := p.AchievedGFLOPs / spec.PeakGFLOPsFP64
		uSmem := math.Min(1, p.AchievedGFLOPs/attainable)
		uMem := 0.0
		if p.MemoryBoundGFLOPs > 0 {
			uMem = math.Min(1, p.AchievedGFLOPs/p.MemoryBoundGFLOPs)
		}
		boost := 1 + cal.boostK*math.Pow(p.AchievedGFLOPs/attainable, cal.boostExp)
		denom := spec.ComputePowerW*uPipes*boost + spec.SMemPowerW*uSmem
		if denom <= 0 {
			continue
		}
		mod := (powerTarget - spec.BasePowerW - spec.MemPowerW*uMem) / denom
		if mod < 0.02 {
			mod = 0.02
		}
		cal.powerMod[bs] = mod
	}
}
