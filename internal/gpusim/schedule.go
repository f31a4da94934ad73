package gpusim

import (
	"fmt"
	"math"
	"sort"
)

// Block scheduler: where matmul.go's analytic model gives each
// configuration a single (time, power) pair, this layer schedules the
// kernel's thread blocks onto the device's SM slots over time and emits a
// *time-varying* power trace — ramp-up while the first wave fills, full
// power in steady state, and a decaying tail as the last wave drains. The
// analytic model remains the source of per-block duration and
// steady-state power; the scheduler adds the temporal structure a real
// WattsUp trace shows.
//
// Because every block of one kernel has the same modeled duration, the
// greedy earliest-slot-first schedule has a closed form: slot i starts at
// its fill-stagger offset and processes its share back to back, so
// occupancy is +1 at each slot's start and −1 at its drain time.

// TracePoint is one step of a piecewise-constant power trace.
type TracePoint struct {
	// Seconds is the step's start offset from kernel launch.
	Seconds float64
	// ActiveSlots is the number of occupied block slots device-wide.
	ActiveSlots int
	// PowerW is the dynamic power during the step.
	PowerW float64
}

// RunMatMulTraced executes the workload through the block scheduler: the
// analytic result plus the power trace the scheduler produced.
func (d *Device) RunMatMulTraced(w MatMulWorkload, c MatMulConfig) (*Result, error) {
	r, err := d.RunMatMul(w, c)
	if err != nil {
		return nil, err
	}
	p := r.Profile
	slots := d.Spec.SMs * p.BlocksPerSM
	if slots < 1 {
		return nil, fmt.Errorf("gpusim: no block slots")
	}
	totalBlocks := p.Blocks * w.Products
	kernelSeconds := r.Seconds - d.cal.launchOverheadS
	if kernelSeconds <= 0 {
		return nil, fmt.Errorf("gpusim: degenerate kernel time")
	}
	// Per-block duration: in steady state `slots` blocks complete every
	// blockDur, reproducing the analytic throughput.
	blockDur := kernelSeconds * float64(slots) / float64(totalBlocks)

	// Distribute blocks to slots: earliest-filled slots take the extras.
	active := slots
	if active > totalBlocks {
		active = totalBlocks
	}
	base := totalBlocks / active
	extra := totalBlocks % active
	fillWindow := math.Min(float64(active)*2e-6, 0.05*kernelSeconds)

	type edge struct {
		t     float64
		delta int
	}
	edges := make([]edge, 0, 2*active)
	for i := 0; i < active; i++ {
		start := fillWindow * float64(i) / float64(active)
		count := base
		if i < extra {
			count++
		}
		// Slots do not drain in lockstep on real hardware: memory and
		// scheduler contention make per-slot progress differ by a couple
		// of percent, which is what gives the power tail its width.
		jitter := 1 + 0.02*math.Sin(float64(i)*2.399)
		edges = append(edges, edge{start, +1})
		edges = append(edges, edge{start + float64(count)*blockDur*jitter, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	makespan := edges[len(edges)-1].t

	// Convert occupancy edges into a compact power trace (merge steps
	// closer than makespan/512 to bound the trace size).
	duty := d.fetchEngineDuty(w.N, c.G)
	fetchW := d.Spec.FetchEnginePowerW * duty
	coreW := r.DynPowerW - d.Spec.BasePowerW - fetchW
	if coreW < 0 {
		coreW = 0
	}
	minStep := makespan / 512
	var trace []TracePoint
	occ := 0
	for i := 0; i < len(edges); {
		t := edges[i].t
		for i < len(edges) && edges[i].t <= t+minStep {
			occ += edges[i].delta
			i++
		}
		frac := float64(occ) / float64(slots)
		if frac > 1 {
			frac = 1
		}
		trace = append(trace, TracePoint{
			Seconds:     t,
			ActiveSlots: occ,
			PowerW:      d.Spec.BasePowerW + fetchW + coreW*frac,
		})
	}
	// Integrate the trace.
	energy := 0.0
	for i := 0; i < len(trace); i++ {
		end := makespan
		if i+1 < len(trace) {
			end = trace[i+1].Seconds
		}
		energy += trace[i].PowerW * (end - trace[i].Seconds)
	}
	r.Trace, r.TraceSeconds, r.TraceEnergyJ = trace, makespan, energy
	return r, nil
}
