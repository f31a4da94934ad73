package device

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/gpusim"
	"energyprop/internal/hetero"
	"energyprop/internal/hw"
	"energyprop/internal/meter"
)

// maxHeteroProcs bounds the ensemble size so a distribution point can be
// a comparable fixed-size value (usable as a map key).
const maxHeteroProcs = 4

// Hetero adapts a CPU+GPU ensemble. Its decision variables are the
// workload distributions: every way of splitting the workload's Products
// units across the ensemble's processors (the discrete space the
// bi-objective distribution solver in internal/optimize searches). The
// processors run their shares concurrently, so a point's time is the
// slowest processor and its energy is the sum.
type Hetero struct {
	name     string
	catalog  string
	idleW    float64
	labels   []string
	platform func(app string, unitN int) []hetero.Processor
}

// NewHetero wraps a platform builder: labels name the processors (short,
// key-safe) and must match the builder's slice order; idleW is the
// combined idle power of the ensemble's nodes. The builder receives the
// workload's application family and unit size.
func NewHetero(name, catalog string, idleW float64, labels []string, platform func(app string, unitN int) []hetero.Processor) (*Hetero, error) {
	if name == "" {
		return nil, errors.New("device: hetero needs a name")
	}
	if platform == nil {
		return nil, errors.New("device: nil platform builder")
	}
	if len(labels) == 0 || len(labels) > maxHeteroProcs {
		return nil, fmt.Errorf("device: hetero needs 1..%d processor labels, got %d", maxHeteroProcs, len(labels))
	}
	return &Hetero{name: name, catalog: catalog, idleW: idleW, labels: labels, platform: platform}, nil
}

// NewPaperHetero builds the paper's Fig 1 ensemble — the Haswell node,
// the K40c, and the P100 — as a single measurable device.
func NewPaperHetero(name string) *Hetero {
	idle := hw.Haswell().IdlePowerW + hw.K40c().IdlePowerW + hw.P100().IdlePowerW
	h, err := NewHetero(name, "Haswell + K40c + P100 (Fig 1 ensemble)", idle,
		[]string{"haswell", "k40c", "p100"}, PaperPlatform)
	if err != nil {
		panic(err) // static arguments; unreachable
	}
	return h
}

// PaperPlatform returns the paper's Fig 1 ensemble as the distribution
// solver's processors, each solving units of an unitN-sized instance of
// the application family: the Haswell node in the balanced two-socket
// decomposition, and each GPU (model-true) at its energy-optimal block
// size for the dense family or at the canonical knobs of the bandwidth
// families. The FFT family exposes no per-unit knob and is not an
// ensemble application.
func PaperPlatform(app string, unitN int) []hetero.Processor {
	app = Workload{App: app}.Normalized().App
	cpu := CPUPoint{C: dense.Config{Groups: 2, ThreadsPerGroup: 12}}
	haswell := &CPU{name: "haswell", m: cpusim.NewHaswell()}
	unit := gpuApps[app].unit
	gpu := func(name string, dev *gpusim.Device, bs int) hetero.Processor {
		return unitProcessor{
			dev: &GPU{name: name, dev: dev, analytic: true}, app: app, unitN: unitN,
			point: func(units int) Config {
				if unit == nil {
					return nil // not distributable: Run reports the mismatch
				}
				return unit(bs, units)
			},
		}
	}
	return []hetero.Processor{
		unitProcessor{dev: haswell, app: app, unitN: unitN, point: func(int) Config { return cpu }},
		gpu("k40c", gpusim.NewK40c(), 32),
		gpu("p100", gpusim.NewP100(), 24),
	}
}

// unitProcessor is one ensemble member as the distribution solver sees
// it: a device solving units instances of one family, back to back, at
// the configuration point returns for that many units.
type unitProcessor struct {
	dev   Device
	app   string
	unitN int
	point func(units int) Config
}

// Name implements hetero.Processor.
func (p unitProcessor) Name() string { return p.dev.Spec().CatalogName }

// RunUnits implements hetero.Processor.
func (p unitProcessor) RunUnits(units int) (float64, float64, error) {
	if units < 0 {
		return 0, 0, errors.New("device: negative units")
	}
	if units == 0 {
		return 0, 0, nil
	}
	out, err := p.dev.Run(context.Background(), Workload{App: p.app, N: p.unitN, Products: units}, p.point(units))
	if err != nil {
		return 0, 0, err
	}
	return out.TrueSeconds, out.TrueEnergyJ, nil
}

// Name implements Device.
func (h *Hetero) Name() string { return h.name }

// Kind implements Device.
func (h *Hetero) Kind() string { return "hetero" }

// Spec implements Device.
func (h *Hetero) Spec() Spec {
	return Spec{CatalogName: h.catalog, IdlePowerW: h.idleW}
}

// HeteroPoint is one workload distribution: Units[i] units on processor
// Labels[i], for i < NP.
type HeteroPoint struct {
	Units  [maxHeteroProcs]int
	Labels [maxHeteroProcs]string
	NP     int
}

// Key implements Config, e.g. "haswell=2/k40c=3/p100=3".
func (p HeteroPoint) Key() string { return p.join("/") }

// String implements Config, e.g. "(haswell=2, k40c=3, p100=3)".
func (p HeteroPoint) String() string { return "(" + p.join(", ") + ")" }

// join renders the distribution's label=units pairs separated by sep.
func (p HeteroPoint) join(sep string) string {
	var b strings.Builder
	for i := 0; i < p.NP; i++ {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(p.Labels[i])
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(p.Units[i]))
	}
	return b.String()
}

// processors validates the workload and builds the ensemble's
// processors for its application family. The FFT family exposes no
// per-unit knob, so it cannot be distributed.
func (h *Hetero) processors(w Workload) ([]hetero.Processor, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if w.App == AppFFT {
		return nil, fmt.Errorf("device: %s cannot distribute the FFT family (no per-unit knob)", h.name)
	}
	procs := h.platform(w.App, w.N)
	if len(procs) != len(h.labels) {
		return nil, fmt.Errorf("device: %s platform has %d processors, %d labels", h.name, len(procs), len(h.labels))
	}
	return procs, nil
}

// Configs implements Device: every composition of w.Products units over
// the ensemble's processors, in lexicographic order. The workload is
// validated by probing each processor with one unit, so a size no
// processor can run surfaces here as an error rather than mid-campaign.
func (h *Hetero) Configs(w Workload) ([]Config, error) {
	w = w.Normalized()
	procs, err := h.processors(w)
	if err != nil {
		return nil, err
	}
	for i, p := range procs {
		if _, _, err := p.RunUnits(1); err != nil {
			return nil, fmt.Errorf("device: %s processor %s cannot run N=%d: %w", h.name, h.labels[i], w.N, err)
		}
	}
	var out []Config
	var units [maxHeteroProcs]int
	var labels [maxHeteroProcs]string
	copy(labels[:], h.labels)
	np := len(h.labels)
	var emit func(i, left int)
	emit = func(i, left int) {
		if i == np-1 {
			units[i] = left
			out = append(out, HeteroPoint{Units: units, Labels: labels, NP: np})
			return
		}
		for u := 0; u <= left; u++ {
			units[i] = u
			emit(i+1, left-u)
		}
	}
	emit(0, w.Products)
	return out, nil
}

// Run implements Device: each processor solves its share concurrently;
// the point's time is the slowest share, its energy the sum, and its
// power profile a staircase stepping down as processors finish.
func (h *Hetero) Run(ctx context.Context, w Workload, c Config) (*Outcome, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	w = w.Normalized()
	if err := w.Validate(); err != nil {
		return nil, err
	}
	p, ok := c.(HeteroPoint)
	if !ok || p.NP != len(h.labels) {
		return nil, configMismatch(h, c)
	}
	total := 0
	for i := 0; i < p.NP; i++ {
		total += p.Units[i]
	}
	if total != w.Products {
		return nil, fmt.Errorf("device: distribution %v sums to %d units, workload has %d", c, total, w.Products)
	}
	procs, err := h.processors(w)
	if err != nil {
		return nil, err
	}
	type share struct{ seconds, powerW float64 }
	var shares []share
	var maxSecs, sumEnergy float64
	for i, proc := range procs {
		if p.Units[i] == 0 {
			continue
		}
		secs, energy, err := proc.RunUnits(p.Units[i])
		if err != nil {
			return nil, fmt.Errorf("device: %s processor %s: %w", h.name, h.labels[i], err)
		}
		if secs <= 0 {
			return nil, fmt.Errorf("device: %s processor %s reported non-positive time", h.name, h.labels[i])
		}
		shares = append(shares, share{seconds: secs, powerW: energy / secs})
		if secs > maxSecs {
			maxSecs = secs
		}
		sumEnergy += energy
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("device: distribution %v assigns no units", c)
	}
	// Staircase: between consecutive finish times the active set is the
	// shares still running.
	sort.Slice(shares, func(i, j int) bool { return shares[i].seconds < shares[j].seconds })
	run := &meter.SegmentRun{}
	prev := 0.0
	for i, s := range shares {
		if s.seconds > prev {
			active := 0.0
			for _, rest := range shares[i:] {
				active += rest.powerW
			}
			run.AddSegment(s.seconds-prev, h.idleW+active)
			prev = s.seconds
		}
	}
	return &Outcome{TrueSeconds: maxSecs, TrueEnergyJ: sumEnergy, Run: run}, nil
}
