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
// The trace is a step walk over those edges: a step that starts at the
// earliest edge t not yet taken absorbs every edge at or before
// t+minStep. The slot start times fillWindow·i/active ascend with i, and
// the drain times are never ordered at all. Which drains a step absorbs
// depends only on which lie under its threshold, so the walk groups them
// into buckets about minStep wide and, per step, takes the buckets below
// the threshold's own whole and scans only that one (see
// drainScratch.walk). The steps, their occupancies and the float sums
// over them come out bit for bit as a merge over sorted edges gives.

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
		j[i] = 1 + float64(jitterAmp*math.Sin(float64(i)*2.399))
	}
	return j
}

// jitterAmp is the jitter's amplitude: every factor lies within
// 1 ± jitterAmp.
const jitterAmp = 0.02

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

// maxBuckets bounds the drain buckets: a traced run's drains span at
// most its makespan, 512·minStep, so minStep-wide buckets number at most
// 513. A wider spread shares the last bucket.
const maxBuckets = 513

// drainScratch is one traced run's pooled scratch: the slot drains in
// slot order, their times grouped by bucket, the bucket offsets, and the
// steps the walk emits.
type drainScratch struct {
	drains  []drain
	grouped []float64
	offs    [maxBuckets + 2]int32
	bk      drainBuckets
	steps   []TracePoint
}

// drain is one slot's drain time and the bucket it falls in.
type drain struct {
	t float64
	b int
}

// drainPool recycles drainScratch across traced runs so a warm run
// allocates only its result, whatever the device's slot count. A trace
// has at most maxBuckets+1 steps: each starts more than minStep after
// the last, within the makespan.
var drainPool = sync.Pool{New: func() any {
	return &drainScratch{steps: make([]TracePoint, 0, maxBuckets+1)}
}}

// drainBuckets maps a drain time t to bucket int((t-lo)·scale), clamped
// into [0, top].
type drainBuckets struct{ lo, scale, top float64 }

// drain returns the drain at time t with its bucket. The bucket is
// monotone in t: a drain in a lower bucket than t's is earlier than t,
// and one in a higher bucket is later.
func (bk drainBuckets) drain(t float64) drain {
	// x > 0 is false for NaN too: 0·Inf when the scale overflows.
	if x := (t - bk.lo) * bk.scale; x > 0 {
		if x >= bk.top {
			return drain{t, int(bk.top)}
		}
		return drain{t, int(x)}
	}
	return drain{t, 0}
}

// reset readies the scratch for n drains, bucketed about width wide over
// [lo, hi], and returns the buckets that make them. The bounds only size
// the buckets: a drain outside them goes to the first or last bucket,
// and the walk is exact whatever they are.
func (sc *drainScratch) reset(n int, lo, hi, width float64) drainBuckets {
	if cap(sc.drains) < n {
		sc.drains, sc.grouped = make([]drain, n), make([]float64, n)
	}
	sc.drains, sc.grouped = sc.drains[:n], sc.grouped[:n]
	sc.bk = drainBuckets{lo: lo}
	if hi > lo && width > 0 {
		sc.bk.scale, sc.bk.top = 1/width, maxBuckets-1
		if w := (hi - lo) / width; w < maxBuckets-1 {
			sc.bk.top = math.Floor(w)
		}
	}
	return sc.bk
}

// slotStart is slot i's fill-stagger start time; it ascends with i.
func slotStart(fillWindow float64, i, active int) float64 {
	return fillWindow * float64(i) / float64(active)
}

// walk turns the slot starts fillWindow·i/n and the n drains in
// sc.drains, none before 0, into trace steps: a step that starts at the
// earliest edge t not yet taken absorbs every edge at or before
// t+minStep. It returns each step's start and occupancy, in sc.steps.
//
// The drains are never ordered, only grouped by bucket. Because the
// bucket index is monotone, every drain in a bucket below the
// threshold's own lies under the threshold and every drain in a bucket
// above it lies over. A step therefore takes the lower buckets whole and
// scans only the threshold's bucket, which also yields the least drain
// left in it. Once that bucket is used up, the next drain is the least
// of the next nonempty bucket. With buckets about minStep wide, each
// threshold lies more than minStep past the last, so a bucket is
// scanned about once.
func (sc *drainScratch) walk(fillWindow, minStep float64) []TracePoint {
	drains, grouped := sc.drains, sc.grouped[:len(sc.drains)]
	n := len(drains)
	// Count bucket b at offs[b+2]: after the prefix sum offs[b+1] is its
	// start, and after the scatter its end, so bucket b is
	// grouped[offs[b]:offs[b+1]].
	offs := sc.offs[:int(sc.bk.top)+3]
	clear(offs)
	for _, d := range drains {
		offs[d.b+2]++
	}
	for b := 2; b < len(offs); b++ {
		offs[b] += offs[b-1]
	}
	for _, d := range drains {
		grouped[offs[d.b+1]] = d.t
		offs[d.b+1]++
	}

	steps := sc.steps[:0]
	lastStart := slotStart(fillWindow, n-1, n)
	occ, i := 0, 0 // occupancy; next slot to start
	// No drain precedes the first start, 0, so the first step starts
	// there, and its scan finds the least drain.
	left, next := n, math.Inf(1) // drains not yet taken; the least of them
	cur, taken := 0, 0           // first bucket with drains left; how many of its drains are taken
	for i < n || left > 0 {
		t := math.Inf(1)
		if i < n {
			t = slotStart(fillWindow, i, n)
		}
		if left > 0 && next < t {
			t = next
		}
		thr := t + minStep
		if i < n && lastStart <= thr {
			occ += n - i
			i = n
		}
		for i < n && slotStart(fillWindow, i, n) <= thr {
			occ++
			i++
		}
		if left > 0 {
			for bt := sc.bk.drain(thr).b; cur < bt; cur++ {
				k := int(offs[cur+1]-offs[cur]) - taken
				occ, left, taken = occ-k, left-k, 0
			}
			// The drains of this bucket at or under thr include the
			// taken ones, which lay under the last step's threshold.
			g := grouped[offs[cur]:offs[cur+1]]
			k, over := split(g, thr)
			occ, left, taken, next = occ-(k-taken), left-(k-taken), k, over
			if k == len(g) && left > 0 {
				b := cur + 1
				for offs[b] == offs[b+1] {
					b++
				}
				_, next = split(grouped[offs[b]:offs[b+1]], math.Inf(-1))
			}
		}
		steps = append(steps, TracePoint{Seconds: t, ActiveSlots: occ})
	}
	sc.steps = steps
	return steps
}

// split counts the times in g at or under thr and returns the least time
// over it, +Inf when there is none.
func split(g []float64, thr float64) (under int, least float64) {
	least = math.Inf(1)
	for _, v := range g {
		if v <= thr {
			under++
		} else if v < least {
			least = v
		}
	}
	return under, least
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

	// Up to rounding, every drain lies in [lo, hi], the jitter's envelope
	// on a slot's share of blocks after its start. So the makespan, the
	// last drain, is about hi at most, and buckets hi/512 wide are about
	// minStep wide. The bounds only size the buckets.
	most := base
	if extra > 0 {
		most++
	}
	lo := float64(float64(base) * blockDur * (1 - jitterAmp))
	hi := fillWindow + float64(float64(most)*blockDur*(1+jitterAmp))
	sc := drainPool.Get().(*drainScratch)
	defer drainPool.Put(sc)
	bk := sc.reset(active, lo, hi, hi/512)
	makespan := math.Inf(-1)
	for i, jitter := range d.jitter[:active] {
		count := base
		if i < extra {
			count++
		}
		v := slotStart(fillWindow, i, active) + float64(float64(count)*blockDur*jitter)
		sc.drains[i] = bk.drain(v)
		if v > makespan {
			makespan = v
		}
	}

	// Convert occupancy edges into a compact power trace (merge steps
	// closer than makespan/512 to bound the trace size).
	duty := d.fetchEngineDuty(w.N, c.G)
	fetchW := float64(d.Spec.FetchEnginePowerW * duty)
	coreW := r.DynPowerW - d.Spec.BasePowerW - fetchW
	if coreW < 0 {
		coreW = 0
	}
	steps := sc.walk(fillWindow, makespan/512)
	// Price and integrate the trace.
	trace := make([]TracePoint, len(steps))
	energy := 0.0
	for i, st := range steps {
		frac := float64(st.ActiveSlots) / float64(slots)
		if frac > 1 {
			frac = 1
		}
		st.PowerW = d.Spec.BasePowerW + fetchW + float64(coreW*frac)
		end := makespan
		if i+1 < len(steps) {
			end = steps[i+1].Seconds
		}
		energy += float64(st.PowerW * (end - st.Seconds))
		trace[i] = st
	}
	r.Trace, r.TraceSeconds, r.TraceEnergyJ = trace, makespan, energy
	return r, nil
}
