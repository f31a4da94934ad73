package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"energyprop/internal/hw"
	"energyprop/internal/meter"
)

func TestTracedMatchesAnalyticTotals(t *testing.T) {
	d := NewP100()
	w := MatMulWorkload{N: 8192, Products: 8}
	for _, c := range []MatMulConfig{
		{BS: 32, G: 1, R: 8}, {BS: 16, G: 2, R: 4}, {BS: 4, G: 1, R: 8},
	} {
		tr, err := d.RunMatMulTraced(w, c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		// Makespan within a few percent of the analytic kernel time.
		rel := tr.TraceSeconds / tr.Seconds
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("%v: makespan %.4fs vs analytic %.4fs", c, tr.TraceSeconds, tr.Seconds)
		}
		// Trace energy within a few percent of the analytic energy (the
		// ramp and tail shave a little off the constant-power product).
		relE := tr.TraceEnergyJ / tr.DynEnergyJ
		if relE < 0.85 || relE > 1.05 {
			t.Errorf("%v: trace energy %.1fJ vs analytic %.1fJ", c, tr.TraceEnergyJ, tr.DynEnergyJ)
		}
	}
}

func TestTracedStructure(t *testing.T) {
	d := NewK40c()
	tr, err := d.RunMatMulTraced(MatMulWorkload{N: 8192, Products: 4}, MatMulConfig{BS: 32, G: 1, R: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Trace) < 3 {
		t.Fatalf("trace has %d steps, want ramp/steady/tail structure", len(tr.Trace))
	}
	if len(tr.Trace) > 2048 {
		t.Errorf("trace has %d steps, want compaction to <= ~1024", len(tr.Trace))
	}
	// Monotone time.
	maxOcc, peakPower := 0, 0.0
	for i, tp := range tr.Trace {
		if i > 0 && tp.Seconds < tr.Trace[i-1].Seconds {
			t.Fatal("trace times must be non-decreasing")
		}
		if tp.ActiveSlots < 0 {
			t.Fatal("negative occupancy")
		}
		if tp.ActiveSlots > maxOcc {
			maxOcc = tp.ActiveSlots
		}
		if tp.PowerW > peakPower {
			peakPower = tp.PowerW
		}
	}
	slots := d.Spec.SMs * tr.Profile.BlocksPerSM
	if maxOcc != slots {
		t.Errorf("peak occupancy %d, want full %d slots", maxOcc, slots)
	}
	// The tail must decay: final step strictly below peak power.
	last := tr.Trace[len(tr.Trace)-1]
	if last.PowerW >= peakPower {
		t.Error("trace should end in a drained (low-power) tail")
	}
	if math.Abs(peakPower-tr.DynPowerW) > 0.02*tr.DynPowerW {
		t.Errorf("steady-state trace power %.1f vs analytic %.1f", peakPower, tr.DynPowerW)
	}
}

func TestTracedTinyGrid(t *testing.T) {
	// Fewer blocks than slots: occupancy never reaches the slot count and
	// the kernel is one partial wave.
	d := NewP100()
	tr, err := d.RunMatMulTraced(MatMulWorkload{N: 64, Products: 1}, MatMulConfig{BS: 32, G: 1, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	slots := d.Spec.SMs * tr.Profile.BlocksPerSM
	for _, tp := range tr.Trace {
		if tp.ActiveSlots > slots {
			t.Fatal("occupancy exceeds slots")
		}
	}
	if tr.Trace[0].ActiveSlots <= 0 {
		t.Error("first step should have active blocks")
	}
}

func TestTracedMeterPipeline(t *testing.T) {
	// End to end: metering the traced run reproduces the trace energy.
	d := NewP100()
	tr, err := d.RunMatMulTraced(MatMulWorkload{N: 8192, Products: 8}, MatMulConfig{BS: 24, G: 1, R: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := meter.NewMeter(d.Spec.IdlePowerW, 1)
	m.NoiseFrac = 0
	m.SampleInterval = tr.TraceSeconds / 2000
	rep, err := m.MeasureRun(tr.Run(d.Spec.IdlePowerW))
	if err != nil {
		t.Fatal(err)
	}
	rel := rep.DynamicEnergyJ / tr.TraceEnergyJ
	if rel < 0.98 || rel > 1.02 {
		t.Errorf("metered %.1fJ vs trace %.1fJ", rep.DynamicEnergyJ, tr.TraceEnergyJ)
	}
}

func TestTracedDeterministic(t *testing.T) {
	d := NewP100()
	w := MatMulWorkload{N: 4096, Products: 4}
	c := MatMulConfig{BS: 16, G: 1, R: 4}
	a, err := d.RunMatMulTraced(w, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.RunMatMulTraced(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceEnergyJ != b.TraceEnergyJ || len(a.Trace) != len(b.Trace) {
		t.Error("scheduler must be deterministic")
	}
}

// oracleTraced is the block scheduler as it was before the sort-free
// trace: every start and drain edge in one slice, ordered by sort.Slice,
// jitter from math.Sin per slot, and the trace grown by append. It stays
// as the bit-identity reference for RunMatMulTraced.
func oracleTraced(d *Device, w MatMulWorkload, c MatMulConfig) (*Result, error) {
	r, err := d.RunMatMul(w, c)
	if err != nil {
		return nil, err
	}
	p := r.Profile
	slots := d.Spec.SMs * p.BlocksPerSM
	totalBlocks := p.Blocks * w.Products
	kernelSeconds := r.Seconds - d.cal.launchOverheadS
	blockDur := kernelSeconds * float64(slots) / float64(totalBlocks)
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
		jitter := 1 + 0.02*math.Sin(float64(i)*2.399)
		edges = append(edges, edge{start, +1})
		edges = append(edges, edge{start + float64(count)*blockDur*jitter, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	makespan := edges[len(edges)-1].t

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

// sameTrace reports the first bit-level difference between two traced
// results, or "" when Trace, TraceSeconds, and TraceEnergyJ agree bit for
// bit.
func sameTrace(got, want *Result) string {
	bits := math.Float64bits
	if bits(got.TraceSeconds) != bits(want.TraceSeconds) {
		return fmt.Sprintf("TraceSeconds %v, want %v", got.TraceSeconds, want.TraceSeconds)
	}
	if bits(got.TraceEnergyJ) != bits(want.TraceEnergyJ) {
		return fmt.Sprintf("TraceEnergyJ %v, want %v", got.TraceEnergyJ, want.TraceEnergyJ)
	}
	if len(got.Trace) != len(want.Trace) {
		return fmt.Sprintf("%d trace steps, want %d", len(got.Trace), len(want.Trace))
	}
	for i, g := range got.Trace {
		o := want.Trace[i]
		if bits(g.Seconds) != bits(o.Seconds) || g.ActiveSlots != o.ActiveSlots || bits(g.PowerW) != bits(o.PowerW) {
			return fmt.Sprintf("step %d is %+v, want %+v", i, g, o)
		}
	}
	return ""
}

// TestTracedMatchesSortOracle: the sort-free scheduler reproduces the
// sort.Slice scheduler bit for bit on both paper GPUs and a wider
// generic one, across matrix sizes from one partial wave (N < BS·slots)
// to many waves, several product counts, and every valid configuration
// of each workload.
func TestTracedMatchesSortOracle(t *testing.T) {
	// A generic GPU with more block slots than the catalog devices
	// exercises a jitter table of the device's own.
	spec := *hw.P100()
	spec.Name, spec.SMs = "wide generic", 128
	wide, err := NewDevice(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.jitter) <= len(catalogJitter) {
		t.Fatalf("wide device has %d slots, want more than the catalog's %d", len(wide.jitter), len(catalogJitter))
	}
	runs := 0
	for _, d := range []*Device{NewK40c(), NewP100(), wide} {
		for _, n := range []int{33, 100, 257, 1000, 2048, 10240} {
			for _, products := range []int{1, 3, 8} {
				w := MatMulWorkload{N: n, Products: products}
				configs, err := d.EnumerateConfigs(w)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range configs {
					got, err := d.RunMatMulTraced(w, c)
					if err != nil {
						t.Fatalf("%s %+v %v: %v", d.Spec.Name, w, c, err)
					}
					want, err := oracleTraced(d, w, c)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameTrace(got, want); diff != "" {
						t.Fatalf("%s %+v %v: %s", d.Spec.Name, w, c, diff)
					}
					runs++
				}
			}
		}
	}
	t.Logf("%d traced runs bit-identical to the sort oracle", runs)
}

// mergeSteps is the step merge the bucket walk replaced, kept as its
// oracle: it walks the ascending slot starts and the drain times, sorted
// ascending, together, and a step starting at t absorbs every remaining
// edge at or before t+minStep.
func mergeSteps(fillWindow float64, drains []float64, minStep float64) []TracePoint {
	active := len(drains)
	var out []TracePoint
	occ := 0
	for i, k := 0, 0; i < active || k < active; {
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
		out = append(out, TracePoint{Seconds: t, ActiveSlots: occ})
	}
	return out
}

// TestWalkMatchesSortedMerge: the bucket walk emits exactly the steps
// that slices.Sort plus mergeSteps give, on synthetic drains the
// catalog devices never produce — a fill window many steps wide, all
// equal drains and heavy duplicates, drains landing exactly on a step's
// threshold, one slot, drains at the first start, a far outlier over a
// tight cluster, and more slots than the catalog jitter table — under
// bucket bounds that fit the drains, that are loose, and that miss them
// all, with one scratch reused throughout, as the pool reuses it.
func TestWalkMatchesSortedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type input struct {
		name                string
		fillWindow, minStep float64
		drains              []float64
	}
	var inputs []input
	add := func(name string, fillWindow, minStep float64, drains []float64) {
		inputs = append(inputs, input{name, fillWindow, minStep, drains})
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		v := make([]float64, n)
		// A fill window many steps wide: starts and drains interleave.
		fillWindow := 0.1 + 0.1*rng.Float64()
		for i := range v {
			v[i] = slotStart(fillWindow, i, n) + 0.1*rng.Float64()
		}
		add("interleaved", fillWindow, 0.002+0.01*rng.Float64(), slices.Clone(v))
		// All equal, and a few distinct values many times over.
		for i := range v {
			v[i] = 0.125
		}
		add("all equal", 0.1*rng.Float64(), 0.125/512, slices.Clone(v))
		for i := range v {
			v[i] = 1 + float64(rng.Intn(5))*0.01
		}
		add("duplicates", 0.02*rng.Float64(), 0.01*rng.Float64(), slices.Clone(v))
		// Chains of drains each exactly one minStep past the last, so a
		// step that starts on one lands its threshold on the next.
		minStep := 1e-3 * (1 + rng.Float64())
		for i := range v {
			if i%8 == 0 {
				v[i] = 0.01 + rng.Float64()*0.3
			} else {
				v[i] = v[i-1] + minStep
			}
		}
		add("threshold ties", 0, minStep, slices.Clone(v))
		add("threshold ties, filling", 0.05*rng.Float64(), minStep, slices.Clone(v))
		// One far outlier over a tight cluster: the outlier lies far past
		// maxBuckets steps, so it shares the last bucket.
		for i := range v {
			v[i] = 1 + rng.Float64()*1e-6
		}
		v[rng.Intn(n)] = 1e6
		add("outlier", 1e-7*rng.Float64(), 1e-6/64, slices.Clone(v))
		add("outlier, makespan steps", 0, 1e6/512, slices.Clone(v))
		// One slot, and drains on the first start.
		add("one slot", rng.Float64(), 1e-3*rng.Float64(), []float64{0.5 + rng.Float64()})
		add("drains at 0", 0.01*rng.Float64(), 1e-3, []float64{0, 0, rng.Float64(), 0})
	}
	// More slots than the catalog jitter table, drained as the scheduler
	// drains them.
	for _, n := range []int{len(catalogJitter) + 1, 3 * len(catalogJitter)} {
		jitter := slotJitter(n)
		for _, blocks := range []int{n / 2, n, 5*n + 3} {
			active := min(n, blocks)
			fillWindow := float64(active) * 2e-6
			v := make([]float64, active)
			for i := range v {
				count := blocks / active
				if i < blocks%active {
					count++
				}
				v[i] = slotStart(fillWindow, i, active) + float64(float64(count)*1e-4*jitter[i])
			}
			add(fmt.Sprintf("%d slots, %d blocks", n, blocks), fillWindow, slices.Max(v)/512, v)
		}
	}

	sc := new(drainScratch)
	for _, in := range inputs {
		sorted := slices.Clone(in.drains)
		slices.Sort(sorted)
		want := mergeSteps(in.fillWindow, sorted, in.minStep)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		// The bucket bounds only size the buckets: the tight ones, loose
		// ones like the scheduler's, and ones that miss every drain all
		// give the same steps.
		for _, b := range []struct {
			name          string
			lo, hi, width float64
		}{
			{"tight", lo, hi, in.minStep},
			{"loose", 0, 1.1 * hi, 1.1 * hi / 512},
			{"below", -2 * hi, -hi, in.minStep},
			{"above", 2 * hi, 3 * hi, in.minStep},
			{"one bucket", lo, lo, in.minStep},
		} {
			bk := sc.reset(len(in.drains), b.lo, b.hi, b.width)
			for j, v := range in.drains {
				sc.drains[j] = bk.drain(v)
			}
			got := sc.walk(in.fillWindow, in.minStep)
			if len(got) != len(want) {
				t.Fatalf("%s (%d drains), %s buckets: %d steps, want %d", in.name, len(in.drains), b.name, len(got), len(want))
			}
			for i, g := range got {
				if math.Float64bits(g.Seconds) != math.Float64bits(want[i].Seconds) || g.ActiveSlots != want[i].ActiveSlots {
					t.Fatalf("%s (%d drains), %s buckets: step %d is %+v, want %+v", in.name, len(in.drains), b.name, i, g, want[i])
				}
			}
		}
	}
}

// TestTracedWarmAllocsIndependentOfSlots: with the drain scratch pooled,
// a warm traced run and its meter profile allocate a constant count —
// the result, the trace, the segment run and its segments — the same on
// the K40c's 240 block slots as on the P100's 1,792.
func TestTracedWarmAllocsIndependentOfSlots(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime randomly drops sync.Pool puts, so pooled paths allocate under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// BS=4 blocks are small enough that every SM holds its hardware
	// limit of resident blocks, so the whole slot table is in play.
	w := MatMulWorkload{N: 10240, Products: 8}
	c := MatMulConfig{BS: 4, G: 1, R: 8}
	var counts []float64
	for _, tc := range []struct {
		d     *Device
		slots int
	}{{NewK40c(), 240}, {NewP100(), 1792}} {
		d := tc.d
		r, err := d.RunMatMulTraced(w, c)
		if err != nil {
			t.Fatal(err)
		}
		if slots := d.Spec.SMs * r.Profile.BlocksPerSM; slots != tc.slots {
			t.Fatalf("%s schedules %d slots, want %d", d.Spec.Name, slots, tc.slots)
		}
		counts = append(counts, testing.AllocsPerRun(50, func() {
			r, err := d.RunMatMulTraced(w, c)
			if err != nil {
				t.Fatal(err)
			}
			_ = r.Run(d.Spec.IdlePowerW)
		}))
	}
	if counts[0] != counts[1] {
		t.Errorf("warm traced run allocates %v objects on K40c but %v on P100, want a slot-independent count", counts[0], counts[1])
	}
	if counts[0] > 4 {
		t.Errorf("warm traced run allocates %v objects, want <= 4 (result, trace, segment run and its segments)", counts[0])
	}
}
