package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/meter"
	"energyprop/internal/parindex"
	"energyprop/internal/service"
	"energyprop/internal/stats"
)

// Span names, one per layer boundary the traced replay crosses.
const (
	spanRequest = "request"       // one replayed request
	spanStream  = "stream"        // campaign.Stream
	spanPoint   = "point"         // campaign.Job.MeasureOn
	spanPolicy  = "policy"        // Run of the policy.Wrap device
	spanDevice  = "device"        // Run of the registry device
	spanCommit  = "commit"        // campaign.Job.Commit
	spanRecord  = "sink.record"   // RecordSink (ResultSink on /measure)
	spanIndex   = "sink.index"    // IndexSink
	spanCount   = "sink.count"    // CountingSink
	spanBest    = "parindex.best" // parindex.Index.Best
)

// maxSpans bounds the spans kept for the trace file; aggregates cover
// every span.
const maxSpans = 20000

// span is one timed interval; Parent indexes the trace's spans (-1: none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// agg sums every span of one name; self excludes time covered by child
// spans.
type agg struct {
	Count int   `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

type frame struct {
	idx          int
	name         string
	start, child int64
}

// tracer records spans in memory around the calls the replay makes into
// each layer. The replay is serial, so a stack of open spans gives every
// span its parent.
type tracer struct {
	t0      time.Time
	req     int
	stack   []frame
	spans   []span
	dropped int
	aggs    map[string]*agg
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggs: map[string]*agg{}}
}

func (t *tracer) now() int64 {
	//lint:ignore purerun the benchmark's timing wrapper reads the host clock around a device run; the reading never reaches the measured record
	return int64(time.Since(t.t0))
}

func (t *tracer) begin(name string) {
	now := t.now()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	idx := -1
	if len(t.spans) < maxSpans {
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: t.req})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{idx: idx, name: name, start: now})
}

func (t *tracer) end() {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	if f.idx >= 0 {
		t.spans[f.idx].End = now
	}
	a := t.aggs[f.name]
	if a == nil {
		a = &agg{}
		t.aggs[f.name] = a
	}
	a.Count++
	a.Total += d
	a.Self += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// get returns the aggregate for name (zero if no such span ran).
func (t *tracer) get(name string) agg {
	if a := t.aggs[name]; a != nil {
		return *a
	}
	return agg{}
}

// timingDevice times Run; Name, Kind, Spec and Configs are forwarded, so
// cache keys, meter baselines and records are unchanged.
type timingDevice struct {
	device.Device
	tr   *tracer
	span string
}

func (d timingDevice) Run(ctx context.Context, w device.Workload, c device.Config) (*device.Outcome, error) {
	d.tr.begin(d.span)
	defer d.tr.end()
	return d.Device.Run(ctx, w, c)
}

// timingSink times Accept.
type timingSink struct {
	campaign.Sink
	tr   *tracer
	span string
}

func (s timingSink) Accept(o campaign.PointOutcome) error {
	s.tr.begin(s.span)
	defer s.tr.end()
	return s.Sink.Accept(o)
}

// tracingExecutor is campaign.LocalExecutor at one worker, with
// Job.MeasureOn and Job.Commit timed.
type tracingExecutor struct{ tr *tracer }

func (e tracingExecutor) Execute(ctx context.Context, job *campaign.Job) error {
	for i := range job.Configs {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.tr.begin(spanPoint)
		o, err := job.MeasureOn(ctx, job.Device, i)
		e.tr.end()
		if err != nil {
			return err
		}
		e.tr.begin(spanCommit)
		err = job.Commit(i, o)
		e.tr.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayer answers requests in-process through the public calls the
// service handlers make, on its own cache and index; with a tracer it
// records spans around each layer.
type replayer struct {
	cache       *campaign.PointCache
	index       *parindex.Index
	tr          *tracer
	sweeps      int
	recordBytes int
}

func newReplayer() *replayer {
	return &replayer{cache: campaign.NewPointCache(service.CacheCapacity), index: parindex.NewIndex()}
}

func (rp *replayer) wrapDevice() func(device.Device, string) device.Device {
	if rp.tr == nil {
		return nil
	}
	return func(d device.Device, span string) device.Device {
		return timingDevice{Device: d, tr: rp.tr, span: span}
	}
}

func (rp *replayer) sink(s campaign.Sink, span string) campaign.Sink {
	if rp.tr == nil {
		return s
	}
	return timingSink{Sink: s, tr: rp.tr, span: span}
}

func (rp *replayer) stream(ctx context.Context, dev device.Device, wl device.Workload, configs []device.Config, spec campaign.Spec, sink campaign.Sink) error {
	if rp.tr != nil {
		spec.Executor = tracingExecutor{rp.tr}
		rp.tr.begin(spanStream)
		defer rp.tr.end()
	}
	return campaign.Stream(ctx, dev, wl, configs, spec, sink)
}

// sweep replays POST /sweep and returns the record the handler would send.
func (rp *replayer) sweep(ctx context.Context, r *service.SweepRequest) ([]byte, error) {
	dev, wl, configs, err := resolve(r.Device, r.Workload, r.Policy, rp.wrapDevice())
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	rec, err := campaign.NewRecordSink(&body, dev, wl, true)
	if err != nil {
		return nil, err
	}
	counts := &campaign.CountingSink{}
	sink := campaign.MultiSink{
		rp.sink(rec, spanRecord),
		rp.sink(campaign.NewIndexSink(rp.index, r.Device, wl), spanIndex),
		rp.sink(counts, spanCount),
	}
	if err := rp.stream(ctx, dev, wl, configs, campaignSpec(r.Seed, r.Workers, rp.cache), sink); err != nil {
		return nil, err
	}
	if n := counts.Failed(); n > 0 {
		return nil, fmt.Errorf("%d points of %s seed %d failed: %v", n, r.Device, r.Seed, counts.FirstFailure())
	}
	rp.sweeps++
	rp.recordBytes += body.Len()
	return body.Bytes(), nil
}

// measure replays POST /measure and returns the measured point.
func (rp *replayer) measure(ctx context.Context, r *service.MeasureRequest) (campaign.PointReport, error) {
	dev, wl, configs, err := resolve(r.Device, r.Workload, r.Policy, rp.wrapDevice())
	if err != nil {
		return campaign.PointReport{}, err
	}
	chosen, err := configNamed(configs, r.Config)
	if err != nil {
		return campaign.PointReport{}, err
	}
	rs := campaign.NewResultSink(dev, wl)
	sink := campaign.MultiSink{rp.sink(rs, spanRecord), rp.sink(campaign.NewIndexSink(rp.index, r.Device, wl), spanIndex)}
	if err := rp.stream(ctx, dev, wl, []device.Config{chosen}, campaignSpec(r.Seed, 0, rp.cache), sink); err != nil {
		return campaign.PointReport{}, err
	}
	res := rs.Result()
	if len(res.Points) == 0 {
		return campaign.PointReport{}, fmt.Errorf("%s %s seed %d failed: %v", r.Device, r.Config, r.Seed, res.Failed[0].Err)
	}
	return res.Points[0], nil
}

// optimize replays GET /optimize: the device-name check and the index
// lookup.
func (rp *replayer) optimize(q *optQuery) error {
	if _, err := device.Open(q.key.Device); err != nil {
		return err
	}
	if rp.tr != nil {
		rp.tr.begin(spanBest)
	}
	_, size, ok := rp.index.Best(q.key, q.q)
	if rp.tr != nil {
		rp.tr.end()
	}
	if !ok {
		return fmt.Errorf("no answer for %+v %+v (front size %d)", q.key, q.q, size)
	}
	return nil
}

// do replays one request and returns its output fingerprint ("" for
// /optimize, whose answer depends on interleaving).
func (rp *replayer) do(ctx context.Context, r request) (string, error) {
	switch {
	case r.sweep != nil:
		body, err := rp.sweep(ctx, r.sweep)
		return sweepPrint(body), err
	case r.measure != nil:
		p, err := rp.measure(ctx, r.measure)
		if err != nil {
			return "", err
		}
		return measurePrint(p.Config.Key(), p.MeasuredEnergyJ, p.Runs), nil
	default:
		return "", rp.optimize(r.opt)
	}
}

// answer replays request i, inside a request span when tracing.
func (rp *replayer) answer(ctx context.Context, i int, r request) (string, error) {
	if rp.tr == nil {
		return rp.do(ctx, r)
	}
	rp.tr.req = i
	rp.tr.begin(spanRequest)
	defer rp.tr.end()
	return rp.do(ctx, r)
}

// prime replays the generator's priming sweeps, untraced and uncounted.
func (rp *replayer) prime(ctx context.Context, g *generator) error {
	tr := rp.tr
	rp.tr = nil
	defer func() { rp.tr, rp.sweeps, rp.recordBytes = tr, 0, 0 }()
	for _, r := range g.primes() {
		if _, err := rp.sweep(ctx, r.sweep); err != nil {
			return err
		}
	}
	return nil
}

// replayBoth answers requests 0, 1, 2, ... on the untraced and the traced
// replayer in turn, alternating which goes first, until d has passed, so
// drift and warm-up fall on both alike. It returns each side's
// per-request durations and the traced side's output fingerprints, and
// counts a failure wherever the two sides' outputs differ.
func replayBoth(ctx context.Context, g *generator, plain, traced *replayer, d time.Duration, fails *failures) (plainDur, tracedDur []time.Duration, prints []string, err error) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		r := g.at(i)
		var fp [2]string
		for k := range 2 {
			rp := plain
			if (i+k)%2 == 1 {
				rp = traced
			}
			t := time.Now()
			p, err := rp.answer(ctx, i, r)
			took := time.Since(t)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("replaying request %d: %w", i, err)
			}
			if rp == plain {
				plainDur = append(plainDur, took)
				fp[0] = p
			} else {
				tracedDur = append(tracedDur, took)
				fp[1] = p
			}
		}
		if fp[0] != fp[1] {
			fails.add("%s request %d: traced output differs from the untraced replay", g.w.name, i)
		}
		prints = append(prints, fp[1])
	}
	return plainDur, tracedDur, prints, nil
}

func configNamed(configs []device.Config, key string) (device.Config, error) {
	for _, c := range configs {
		if c.Key() == key {
			return c, nil
		}
	}
	return nil, fmt.Errorf("unknown config %q", key)
}

// sweepPrint fingerprints a /sweep body.
func sweepPrint(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// measurePrint fingerprints a measured point exactly.
func measurePrint(key string, energyJ float64, runs int) string {
	return fmt.Sprintf("%s %x %d", key, math.Float64bits(energyJ), runs)
}

// ladder times the steps inside one measured point, re-run from outside
// the campaign engine exactly as campaign.measurePoint runs them.
type ladder struct {
	points      int
	measureRuns int
	samples     int
	device      time.Duration // device.Run
	newMeter    time.Duration // meter.NewMeter
	measureRun  time.Duration // every meter.MeasureRun
	measure     time.Duration // stats.Measure, MeasureRun included
}

// runLadder re-measures the first maxPoints device points of the run's
// request sequence step by step and checks each against the engine's
// own serial result bit for bit. The sample is fixed by the seed, so the
// counts it reports repeat exactly.
func runLadder(ctx context.Context, g *generator, maxPoints int, fails *failures) (ladder, error) {
	var l ladder
	for i := 0; l.points < maxPoints; i++ {
		r := g.at(i)
		var (
			name, pol, only string
			wl              device.Workload
			seed            int64
		)
		switch {
		case r.sweep != nil:
			name, wl, pol, seed = r.sweep.Device, r.sweep.Workload, r.sweep.Policy, r.sweep.Seed
		case r.measure != nil:
			name, wl, pol, seed, only = r.measure.Device, r.measure.Workload, r.measure.Policy, r.measure.Seed, r.measure.Config
		default:
			continue
		}
		dev, wl, configs, err := resolve(name, wl, pol, nil)
		if err != nil {
			return l, err
		}
		if only != "" {
			c, err := configNamed(configs, only)
			if err != nil {
				return l, err
			}
			configs = []device.Config{c}
		}
		spec := campaignSpec(seed, 1, nil)
		rs := campaign.NewResultSink(dev, wl)
		if err := campaign.Stream(ctx, dev, wl, configs, spec, rs); err != nil {
			return l, err
		}
		want := rs.Result().Points
		if len(want) != len(configs) {
			return l, fmt.Errorf("ladder reference for request %d lost points", i)
		}
		for j, c := range configs {
			if l.points >= maxPoints {
				break
			}
			mean, runs, err := l.step(ctx, dev, wl, c, spec)
			if err != nil {
				return l, err
			}
			if math.Float64bits(mean) != math.Float64bits(want[j].MeasuredEnergyJ) || runs != want[j].Runs {
				fails.add("ladder: request %d %s: %v J in %d runs, engine measured %v J in %d runs",
					i, c.Key(), mean, runs, want[j].MeasuredEnergyJ, want[j].Runs)
			}
		}
	}
	return l, nil
}

// step measures one point: device run, fresh meter, statistical loop.
func (l *ladder) step(ctx context.Context, dev device.Device, wl device.Workload, c device.Config, spec campaign.Spec) (float64, int, error) {
	t := time.Now()
	out, err := dev.Run(ctx, wl, c)
	l.device += time.Since(t)
	if err != nil {
		return 0, 0, err
	}
	t = time.Now()
	m := meter.NewMeter(dev.Spec().IdlePowerW, device.ConfigSeed(spec.Seed, c))
	l.newMeter += time.Since(t)
	m.NoiseFrac = spec.NoiseFrac
	m.SpikeProb = spec.SpikeProb
	if d := out.Run.Duration(); d < 50 {
		m.SampleInterval = d / 50
	}
	t = time.Now()
	meas, err := stats.Measure(spec.Measure, func() (float64, error) {
		s := time.Now()
		rep, err := m.MeasureRun(out.Run)
		l.measureRun += time.Since(s)
		l.measureRuns++
		if err != nil {
			return 0, err
		}
		l.samples += rep.Samples
		return rep.DynamicEnergyJ, nil
	})
	l.measure += time.Since(t)
	l.points++
	if err != nil {
		return 0, 0, err
	}
	return meas.Mean, meas.Runs, nil
}
