// Package cpusim is the multicore CPU machine model standing in for the
// paper's dual-socket Intel Haswell E5-2670v3 node (see DESIGN.md). It
// executes threadgroup-decomposed DGEMM configurations (Fig 3/Fig 4:
// partition type × number of threadgroups × threads per group) against a
// contention-aware execution model and a component dynamic-power model,
// and reports exactly what the paper measures: execution time, GFLOPs,
// per-logical-core utilization (exposed through a /proc/stat emulation),
// dynamic power, and dynamic energy.
//
// The nonproportionality mechanisms are the ones the literature the paper
// builds on identifies: per-core power follows the simple EP model
// P = a·U, but (1) threads finishing at different times leave cores at
// different utilizations for the same average, (2) per-socket uncore
// power switches in stepwise with placement, (3) hyperthread siblings
// share pipelines, and (4) the dTLB page-walk component (Khokhriakov et
// al.) burns power disproportionately for access patterns that touch many
// pages.
package cpusim

import (
	"fmt"
	"math"
	"sync"

	"energyprop/internal/dense"
	"energyprop/internal/hw"
)

// calibration holds the machine model's tunables (magnitudes; the
// mechanisms live in runGEMM).
type calibration struct {
	// perThreadGFLOPs is one thread's compute throughput with a physical
	// core to itself.
	perThreadGFLOPs float64
	// htCombinedFactor is the combined throughput of two hyperthread
	// siblings sharing a physical core, relative to one thread.
	htCombinedFactor float64
	// bytesPerFlopPacked/Tiled are the effective DRAM traffic rates of the
	// two DGEMM variants (packing reduces traffic).
	bytesPerFlopPacked, bytesPerFlopTiled float64
	// cyclicTrafficFactor inflates traffic for the cyclic partition (worse
	// locality).
	cyclicTrafficFactor float64
	// tlbPagesPerSecondCapacity is the page-walk rate that saturates the
	// dTLB power component.
	tlbPagesPerSecondCapacity float64
	// cyclicTLBFactor and tiledTLBFactor inflate page-walk activity for
	// the cyclic partition and the tiled (non-packing) variant.
	cyclicTLBFactor, tiledTLBFactor float64
	// htSecondaryPowerFactor is the extra core power of a second active
	// hyperthread relative to the first.
	htSecondaryPowerFactor float64
	// uncoreFloor is the fraction of uncore power drawn as soon as a
	// socket has any active core (the rest scales with socket activity).
	uncoreFloor float64
}

func haswellCalibration() calibration {
	return calibration{
		perThreadGFLOPs:           30,
		htCombinedFactor:          1.15,
		bytesPerFlopPacked:        0.097, // plateau ≈ 68 GB/s ÷ 0.097 ≈ 700 GFLOPs
		bytesPerFlopTiled:         0.105, // OpenBLAS-like plateau ≈ 650 GFLOPs
		cyclicTrafficFactor:       1.12,
		tlbPagesPerSecondCapacity: 4e7,
		cyclicTLBFactor:           2.0,
		tiledTLBFactor:            1.35,
		htSecondaryPowerFactor:    0.3,
		uncoreFloor:               0.7,
	}
}

// Machine is one simulated multicore node. A Machine is safe for
// concurrent use by the campaign engine: the model itself is pure, and
// the run scratch and derived-input caches (see scratch.go) are pooled
// and locked. Machines must not be copied once used.
type Machine struct {
	Spec *hw.CPUSpec
	cal  calibration

	// mu guards the derived-input caches below. Scratch lives in pools
	// of its own so concurrent runs never contend on buffers.
	mu         sync.RWMutex
	placements map[placementKey][]int
	gemmFlops  map[flopsKey][]float64
	configs    []dense.Config

	scratch sync.Pool // *runScratch
	procs   sync.Pool // *procScratch
}

// NewMachine builds a simulated machine for a catalog CPU spec.
func NewMachine(spec *hw.CPUSpec) (*Machine, error) {
	if spec == nil {
		return nil, fmt.Errorf("cpusim: nil spec")
	}
	if spec.PhysicalCores() < 1 || spec.MemBandwidthGBs <= 0 || spec.PeakGFLOPs <= 0 {
		return nil, fmt.Errorf("cpusim: spec %q has non-positive machine parameters", spec.Name)
	}
	return &Machine{
		Spec:       spec,
		cal:        haswellCalibration(),
		placements: make(map[placementKey][]int),
		gemmFlops:  make(map[flopsKey][]float64),
	}, nil
}

// NewHaswell returns the simulated dual-socket Haswell node of Table I.
func NewHaswell() *Machine {
	m, err := NewMachine(hw.Haswell())
	if err != nil {
		panic(err) // catalog specs are always valid
	}
	return m
}

// Placement selects the thread-binding policy — the OMP_PROC_BIND analog.
// It is a machine-level knob orthogonal to the application configuration:
// the same (partition, p, t) triple lands on different cores under
// different policies, which moves power without moving average
// utilization (another instance of the paper's A/B points).
type Placement int

const (
	// PlacementGroupRoundRobin sends threadgroups to sockets round-robin,
	// physical cores first (the default; what the Fig 4 application does).
	PlacementGroupRoundRobin Placement = iota
	// PlacementCompact fills socket 0 completely (physical then
	// hyperthread) before touching socket 1 — OMP_PROC_BIND=close.
	PlacementCompact
	// PlacementScatter alternates sockets per thread — OMP_PROC_BIND=spread.
	PlacementScatter
)

// String names the policy.
func (p Placement) String() string {
	switch p {
	case PlacementGroupRoundRobin:
		return "group-roundrobin"
	case PlacementCompact:
		return "compact"
	case PlacementScatter:
		return "scatter"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// GEMMApp is one Fig 4 application configuration: a DGEMM of size N×N run
// under a threadgroup decomposition with one of the two BLAS-variant
// kernels, bound with the given placement policy.
type GEMMApp struct {
	N       int
	Config  dense.Config
	Variant dense.Variant
	// Placement is the thread-binding policy (zero value: the Fig 4
	// group-round-robin binding).
	Placement Placement
}

// PowerBreakdown itemizes the node's dynamic power during a run.
type PowerBreakdown struct {
	// CoreW is the summed per-core dynamic power (the simple EP model part).
	CoreW float64
	// UncoreW is the per-socket shared-component power.
	UncoreW float64
	// DTLBW is the page-walk component.
	DTLBW float64
}

// TotalW sums the components.
func (b PowerBreakdown) TotalW() float64 { return b.CoreW + b.UncoreW + b.DTLBW }

// Result reports one simulated execution — the single result shape of
// every application family the machine runs. The per-thread fields
// (CoreUtil, AvgUtil, Power, ThreadSeconds) are zero for the strong-EP
// FFT model (RunFFT2D), which has no threadgroup decomposition.
type Result struct {
	App GEMMApp
	// AppName identifies the application family ("dgemm", "fft2d",
	// "spmv", or "stencil").
	AppName string
	// Work is the application's flop count.
	Work float64
	// Seconds is the application execution time (slowest thread).
	Seconds float64
	// GFLOPs is the paper's performance metric Work/t (2·N³/t for DGEMM).
	GFLOPs float64
	// CoreUtil is the utilization of every logical core in [0,1], indexed
	// by logical core id (0..LogicalCores-1).
	CoreUtil []float64
	// AvgUtil is the average of CoreUtil — the paper's "average CPU
	// utilization" over all logical cores, as a fraction.
	AvgUtil float64
	// DynPowerW is the node's average dynamic power.
	DynPowerW float64
	// DynEnergyJ is the node's dynamic energy for the run.
	DynEnergyJ float64
	// Power itemizes DynPowerW.
	Power PowerBreakdown
	// ThreadSeconds is each thread's busy time (diagnostics and theory
	// checks: differences here are what break weak EP).
	ThreadSeconds []float64
}

// threadPlacement maps each thread (group-major order) to a logical core
// under the given binding policy.
func (m *Machine) threadPlacement(cfg dense.Config, policy Placement) ([]int, error) {
	spec := m.Spec
	logical := spec.LogicalCores()
	threads := cfg.Threads()
	if threads > logical {
		return nil, fmt.Errorf("cpusim: %d threads exceed %d logical cores", threads, logical)
	}
	phys := spec.PhysicalCores()
	perSocket := spec.CoresPerSocket
	used := make([]bool, logical)
	placement := make([]int, 0, threads)

	// pick returns the next free logical core on the given socket
	// (physical first, then siblings), or -1.
	pick := func(socket int) int {
		base := socket * perSocket
		for c := 0; c < perSocket; c++ {
			if !used[base+c] {
				return base + c
			}
		}
		if spec.Hyperthreading {
			for c := 0; c < perSocket; c++ {
				if !used[phys+base+c] {
					return phys + base + c
				}
			}
		}
		return -1
	}
	// socketFor decides the preferred socket of the i-th thread (within
	// group g) under the policy.
	socketFor := func(threadIdx, group int) int {
		switch policy {
		case PlacementCompact:
			return 0 // spill handles the rest
		case PlacementScatter:
			return threadIdx % spec.Sockets
		default:
			return group % spec.Sockets
		}
	}
	idx := 0
	for g := 0; g < cfg.Groups; g++ {
		for th := 0; th < cfg.ThreadsPerGroup; th++ {
			l := pick(socketFor(idx, g))
			if l < 0 {
				// Preferred socket full: spill anywhere.
				for s := 0; s < spec.Sockets && l < 0; s++ {
					l = pick(s)
				}
			}
			if l < 0 {
				return nil, fmt.Errorf("cpusim: no free logical core for group %d thread %d", g, th)
			}
			used[l] = true
			placement = append(placement, l)
			idx++
		}
	}
	return placement, nil
}

// physicalOf returns the physical core of a logical core id.
func (m *Machine) physicalOf(l int) int {
	phys := m.Spec.PhysicalCores()
	if l < phys {
		return l
	}
	return l - phys
}

// socketOf returns the socket of a logical core id.
func (m *Machine) socketOf(l int) int {
	return m.physicalOf(l) / m.Spec.CoresPerSocket
}

// RunGEMM simulates one Fig 4 configuration into out and returns it; a
// nil out allocates a fresh Result. Every runner of the machine follows
// this convention: reusing the same Result across calls makes a warm run
// allocation-free, because the result's slices, the run scratch, the
// thread placement, and the decomposed flop shares are all sized on
// first use and recycled.
func (m *Machine) RunGEMM(app GEMMApp, out *Result) (*Result, error) {
	if out == nil {
		out = &Result{}
	}
	if err := m.runGEMMScaled(app, 1, out); err != nil {
		return nil, err
	}
	return out, nil
}

// runGEMMScaled is the shared body of RunGEMM and the DVFS path:
// rel scales the calibration's per-thread compute rate (1 at the
// nominal clock). Scaling the rate here instead of copying the whole
// machine with a scaled calibration keeps frequency reruns cheap and
// lets every level share the cached placement and decomposition.
func (m *Machine) runGEMMScaled(app GEMMApp, rel float64, out *Result) error {
	if app.N < 1 {
		return fmt.Errorf("cpusim: N=%d must be >= 1", app.N)
	}
	flops, err := m.gemmFlopsFor(app.N, app.Config)
	if err != nil {
		return err
	}
	placement, err := m.placementFor(app.Config, app.Placement)
	if err != nil {
		return err
	}
	cal := &m.cal
	bytesPerFlop := cal.bytesPerFlopPacked
	if app.Variant == dense.VariantTiled {
		bytesPerFlop = cal.bytesPerFlopTiled
	}
	trafficFactor := 1.0
	if app.Config.Partition == dense.PartitionCyclic {
		trafficFactor = cal.cyclicTrafficFactor
	}
	tlbFactor := 1.0
	if app.Config.Partition == dense.PartitionCyclic {
		tlbFactor *= cal.cyclicTLBFactor
	}
	if app.Variant == dense.VariantTiled {
		tlbFactor *= cal.tiledTLBFactor
	}
	n := float64(app.N)
	out.ensureSized(app.Config.Threads(), m.Spec.LogicalCores())
	sc := m.getScratch()
	err = m.runThreads(app.Config, placement, flops, cal.perThreadGFLOPs*rel, bytesPerFlop, trafficFactor, tlbFactor, sc, out)
	m.putScratch(sc)
	if err != nil {
		return err
	}
	out.App = app
	out.AppName = "dgemm"
	out.Work = 2 * n * n * n
	out.GFLOPs = out.Work / out.Seconds / 1e9
	return nil
}

// runBalanced is the shared body of the load-balanced families (the
// threaded FFT, SpMV, stencil): work divides equally among the
// configuration's threads, each flop costing penalty DGEMM-calibrated
// flops, with the family's DRAM traffic and page-walk character. It
// fills and returns out (allocating when nil).
func (m *Machine) runBalanced(app string, n int, cfg dense.Config, work, traffic, penalty, tlbFactor float64, out *Result) (*Result, error) {
	placement, err := m.placementFor(cfg, PlacementGroupRoundRobin)
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = &Result{}
	}
	threads := cfg.Threads()
	bytesPerFlop := traffic / work
	share := work / float64(threads)
	out.ensureSized(threads, m.Spec.LogicalCores())
	sc := m.getScratch()
	flops := sc.flops[:threads]
	for i := range flops {
		flops[i] = share * penalty
	}
	err = m.runThreads(cfg, placement, flops, m.cal.perThreadGFLOPs, bytesPerFlop/penalty, 1.0, tlbFactor, sc, out)
	m.putScratch(sc)
	if err != nil {
		return nil, err
	}
	out.App = GEMMApp{N: n, Config: cfg}
	out.AppName = app
	out.Work = work
	out.GFLOPs = work / out.Seconds / 1e9
	return out, nil
}

// runThreads is the shared execution engine for load-balanced
// multithreaded applications: given the (cached) thread placement, a
// per-thread flop vector, and the application's traffic/TLB character,
// it applies the contention roofline, accounts per-core utilization, and
// evaluates the component power model into the caller-owned result.
// Callers fill in the application identity and performance metric.
//
// Preconditions (established by the exported entry points): placement
// has cfg.Threads() elements, sc's buffers are sized for the machine
// spec, and out's slices are sized via ensureSized. The body performs no
// allocation — every buffer is caller-provided — so warm reruns are
// allocation-free at steady state.
//
//lint:root hotalloc the execution engine runs once per (config, frequency, repetition) point of every CPU sweep; all buffers are caller-provided scratch
func (m *Machine) runThreads(cfg dense.Config, placement []int, flops []float64, perThreadGFLOPs, bytesPerFlop, trafficFactor, tlbFactor float64, sc *runScratch, out *Result) error {
	spec, cal := m.Spec, &m.cal
	threads := cfg.Threads()
	if len(flops) != threads {
		return fmt.Errorf("cpusim: %d flop shares for %d threads", len(flops), threads)
	}
	if len(placement) != threads {
		return fmt.Errorf("cpusim: placement has %d cores for %d threads", len(placement), threads)
	}
	logical := spec.LogicalCores()

	// Per-thread compute rate: siblings sharing a physical core split the
	// core's hyperthreaded combined throughput.
	physLoad := sc.physLoad[:spec.PhysicalCores()]
	for i := range physLoad {
		physLoad[i] = 0
	}
	for _, l := range placement {
		physLoad[m.physicalOf(l)]++
	}
	rate := sc.rate[:threads]
	for i, l := range placement {
		r := perThreadGFLOPs
		if physLoad[m.physicalOf(l)] > 1 {
			r = perThreadGFLOPs * cal.htCombinedFactor / 2
		}
		rate[i] = r
	}

	// Per-thread DRAM traffic.
	bytes := sc.bytes[:threads]
	socketThreads := sc.socketThreads[:spec.Sockets]
	for i := range socketThreads {
		socketThreads[i] = 0
	}
	for i := range placement {
		bytes[i] = flops[i] * bytesPerFlop * trafficFactor
		socketThreads[m.socketOf(placement[i])]++
	}

	// Roofline per thread: compute time vs memory time at an equal share
	// of the socket's bandwidth.
	socketBW := spec.MemBandwidthGBs * 1e9 / float64(spec.Sockets)
	tThread := out.ThreadSeconds[:threads]
	T := 0.0
	for i := range tThread {
		tc := flops[i] / (rate[i] * 1e9)
		k := socketThreads[m.socketOf(placement[i])]
		tm := bytes[i] / (socketBW / float64(k))
		tThread[i] = math.Max(tc, tm)
		if tThread[i] > T {
			T = tThread[i]
		}
	}
	if T <= 0 {
		return fmt.Errorf("cpusim: degenerate run (no work)")
	}

	// Utilization per logical core: a thread keeps its core busy for its
	// own completion time; the application ends when the slowest thread
	// does. Idle cores contribute zero.
	coreUtil := out.CoreUtil[:logical]
	for i := range coreUtil {
		coreUtil[i] = 0
	}
	for i, l := range placement {
		coreUtil[l] = tThread[i] / T
	}
	avg := 0.0
	for _, u := range coreUtil {
		avg += u
	}
	avg /= float64(logical)

	// Power components.
	var pw PowerBreakdown
	// Core power: P = a·U per core; a second hyperthread adds a fraction.
	perPhys := sc.perPhys[:spec.PhysicalCores()]
	for i := range perPhys {
		perPhys[i] = powerPair{}
	}
	for i, l := range placement {
		p := m.physicalOf(l)
		u := tThread[i] / T
		if u > perPhys[p].hi {
			perPhys[p].hi, perPhys[p].lo = u, perPhys[p].hi
		} else if u > perPhys[p].lo {
			perPhys[p].lo = u
		}
	}
	for _, pp := range perPhys {
		pw.CoreW += spec.CorePowerW * (pp.hi + cal.htSecondaryPowerFactor*pp.lo)
	}
	// Uncore power: a floor as soon as the socket is active plus an
	// activity-proportional part.
	for s := 0; s < spec.Sockets; s++ {
		if socketThreads[s] == 0 {
			continue
		}
		var socketUtil float64
		for i, l := range placement {
			if m.socketOf(l) == s {
				socketUtil += tThread[i] / T
			}
		}
		socketUtil /= float64(spec.CoresPerSocket) // activity relative to socket size
		if socketUtil > 1 {
			socketUtil = 1
		}
		pw.UncoreW += spec.UncorePowerW * (cal.uncoreFloor + (1-cal.uncoreFloor)*socketUtil)
	}
	// dTLB power: page-walk rate relative to capacity.
	totalBytes := 0.0
	for _, b := range bytes {
		totalBytes += b
	}
	pageRate := totalBytes / 4096 / T * tlbFactor
	tlbActivity := math.Min(1, pageRate/cal.tlbPagesPerSecondCapacity)
	pw.DTLBW = spec.DTLBPowerW * tlbActivity

	out.Seconds = T
	out.AvgUtil = avg
	out.DynPowerW = pw.TotalW()
	out.DynEnergyJ = pw.TotalW() * T
	out.Power = pw
	return nil
}

// EnumerateConfigs returns the Fig 4 configuration space: every
// (partition, groups, threads-per-group) combination with at most the
// machine's logical core count of threads. Group counts are limited to 8
// as in the paper's threadgroup application. The space is enumerated
// once per machine; callers receive a fresh copy they may reorder.
func (m *Machine) EnumerateConfigs() []dense.Config {
	m.mu.RLock()
	cached := m.configs
	m.mu.RUnlock()
	if cached == nil {
		logical := m.Spec.LogicalCores()
		for _, part := range []dense.Partition{dense.PartitionContiguous, dense.PartitionCyclic} {
			for p := 1; p <= 8; p++ {
				for t := 1; p*t <= logical; t++ {
					cached = append(cached, dense.Config{Groups: p, ThreadsPerGroup: t, Partition: part})
				}
			}
		}
		m.mu.Lock()
		m.configs = cached
		m.mu.Unlock()
	}
	out := make([]dense.Config, len(cached))
	copy(out, cached)
	return out
}
