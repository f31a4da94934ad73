package gpusim

import (
	"fmt"
	"math"
	"sync"

	"energyprop/internal/hw"
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
//
// The slot start times fillWindow·i/active ascend with i, so only the
// drain times need ordering: a counting pass into equal-width buckets
// followed by an insertion sort that fixes order within a bucket (see
// bucketSort). The trace then merges the starts into the ordered drains.
// The greedy step merge depends only on the multiset of edge times, so
// any correct ordering yields the same trace bit for bit.

// TracePoint is one step of a piecewise-constant power trace.
type TracePoint struct {
	// Seconds is the step's start offset from kernel launch.
	Seconds float64
	// ActiveSlots is the number of occupied block slots device-wide.
	ActiveSlots int
	// PowerW is the dynamic power during the step.
	PowerW float64
}

// slotJitter is the per-slot drain-rate factor table for n slots. Slots
// do not drain in lockstep on real hardware: memory and scheduler
// contention make per-slot progress differ by a couple of percent, which
// is what gives the power tail its width.
func slotJitter(n int) []float64 {
	j := make([]float64, n)
	for i := range j {
		j[i] = 1 + 0.02*math.Sin(float64(i)*2.399)
	}
	return j
}

// catalogJitter covers every block slot of the catalog GPUs. An entry
// depends only on its slot index, so devices share this one table
// rather than building their own each time one is opened.
var catalogJitter = slotJitter(max(
	hw.K40c().SMs*k40cCalibration().maxBlocksPerSM,
	hw.P100().SMs*p100Calibration().maxBlocksPerSM))

// jitterFor returns the jitter table for a device with the given number
// of block slots: a prefix of the shared catalog table when it is long
// enough, a table of the device's own otherwise.
func jitterFor(slots int) []float64 {
	if slots <= len(catalogJitter) {
		return catalogJitter[:slots:slots]
	}
	return slotJitter(slots)
}

// drainScratch is one traced run's pooled scratch: the slot drain times
// in slot order, the same times ascending, and the bucket offsets that
// order them.
type drainScratch struct {
	drains, sorted []float64
	counts         []int32
}

// drainPool recycles drainScratch across traced runs so a warm run
// allocates only its result, whatever the device's slot count.
var drainPool = sync.Pool{New: func() any { return new(drainScratch) }}

// size readies the scratch for n slots. Contents are arbitrary; every
// element is overwritten before it is read.
func (sc *drainScratch) size(n int) {
	if cap(sc.drains) < n {
		sc.drains, sc.sorted, sc.counts = make([]float64, n), make([]float64, n), make([]int32, n+1)
	}
	sc.drains, sc.sorted, sc.counts = sc.drains[:n], sc.sorted[:n], sc.counts[:n+1]
}

// bucketSort writes src in ascending order into dst (len(dst) ==
// len(src), len(counts) == len(src)+1). A counting pass distributes the
// values into len(src) equal-width buckets over [min, max]; the bucket
// index is monotone in the value, so an insertion sort over dst then
// only reorders within a bucket. Any spread of values sorts correctly —
// the buckets only bound the insertion sort's work.
func bucketSort(dst, src []float64, counts []int32) {
	n := len(src)
	if n == 0 {
		return
	}
	lo, hi := src[0], src[0]
	for _, v := range src[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := 0.0
	if hi > lo {
		scale = float64(n) / (hi - lo)
	}
	bucket := func(v float64) int {
		b := int((v - lo) * scale)
		if b < 0 {
			return 0
		}
		if b >= n {
			return n - 1
		}
		return b
	}
	clear(counts)
	for _, v := range src {
		counts[bucket(v)+1]++
	}
	for b := 1; b <= n; b++ {
		counts[b] += counts[b-1]
	}
	for _, v := range src {
		b := bucket(v)
		dst[counts[b]] = v
		counts[b]++
	}
	for i := 1; i < n; i++ {
		v, j := dst[i], i
		for ; j > 0 && dst[j-1] > v; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = v
	}
}

// slotStart is slot i's fill-stagger start time; it ascends with i.
func slotStart(fillWindow float64, i, active int) float64 {
	return fillWindow * float64(i) / float64(active)
}

// mergeSteps walks the ascending slot starts and the ascending drain
// times together, grouping edges within minStep of a step's first edge
// into that step: a step starting at t absorbs every remaining edge at
// or before t+minStep. It writes each step's start and occupancy into
// out, or only counts the steps when out is nil.
func mergeSteps(fillWindow float64, drains []float64, minStep float64, out []TracePoint) int {
	active := len(drains)
	n, occ := 0, 0
	for i, k := 0, 0; i < active || k < active; n++ {
		t := math.Inf(1)
		if i < active {
			t = slotStart(fillWindow, i, active)
		}
		if k < active && drains[k] < t {
			t = drains[k]
		}
		for i < active && slotStart(fillWindow, i, active) <= t+minStep {
			occ++
			i++
		}
		for k < active && drains[k] <= t+minStep {
			occ--
			k++
		}
		if out != nil {
			out[n] = TracePoint{Seconds: t, ActiveSlots: occ}
		}
	}
	return n
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

	sc := drainPool.Get().(*drainScratch)
	defer drainPool.Put(sc)
	sc.size(active)
	for i, jitter := range d.jitter[:active] {
		count := base
		if i < extra {
			count++
		}
		sc.drains[i] = slotStart(fillWindow, i, active) + float64(count)*blockDur*jitter
	}
	bucketSort(sc.sorted, sc.drains, sc.counts)
	// Every slot drains after it starts, so the last drain is the
	// makespan.
	makespan := sc.sorted[active-1]

	// Convert occupancy edges into a compact power trace (merge steps
	// closer than makespan/512 to bound the trace size).
	duty := d.fetchEngineDuty(w.N, c.G)
	fetchW := d.Spec.FetchEnginePowerW * duty
	coreW := r.DynPowerW - d.Spec.BasePowerW - fetchW
	if coreW < 0 {
		coreW = 0
	}
	minStep := makespan / 512
	trace := make([]TracePoint, mergeSteps(fillWindow, sc.sorted, minStep, nil))
	mergeSteps(fillWindow, sc.sorted, minStep, trace)
	// Price and integrate the trace.
	energy := 0.0
	for i := range trace {
		frac := float64(trace[i].ActiveSlots) / float64(slots)
		if frac > 1 {
			frac = 1
		}
		trace[i].PowerW = d.Spec.BasePowerW + fetchW + coreW*frac
		end := makespan
		if i+1 < len(trace) {
			end = trace[i+1].Seconds
		}
		energy += trace[i].PowerW * (end - trace[i].Seconds)
	}
	r.Trace, r.TraceSeconds, r.TraceEnergyJ = trace, makespan, energy
	return r, nil
}
