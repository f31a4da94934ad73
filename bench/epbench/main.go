// Command epbench is the repository's benchmark of record: it drives the
// measurement service (internal/service behind net/http, as cmd/epmeterd
// serves it) with four seeded workloads from one process, prints every
// end-to-end metric, and checks every output it times. With -trace 1 it
// instead replays each workload in-process with spans around every
// layer and prints the per-layer ladder. See bench/README.md.
//
// Usage, from the bench directory:
//
//	go run ./epbench -seed 1 -out out/run.json
//	go run ./epbench -workload sweep-warm -seed 3 -seconds 20
//	go run ./epbench -trace 1 -seed 1
//	go run ./epbench -compare out/a.json out/b.json
//	go run ./epbench -update
//
// The last line of standard output is a JSON summary:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
// any output check failed and 2 on a usage or harness error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit. The lists match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"heap_p90_mb", "MiB"},
}

var perLayer = []metricDef{
	{"device.run_us", "us"},
	{"device.runs", "count"},
	{"device.point_pct", "%"},
	{"policy.self_pct", "%"},
	{"meter.new_us", "us"},
	{"meter.measure_run_us", "us"},
	{"meter.samples_per_run", "count"},
	{"stats.self_us", "us"},
	{"stats.reps_per_point", "count"},
	{"campaign.stream_ms", "ms"},
	{"campaign.point_self_us", "us"},
	{"campaign.commit_us", "us"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.evictions", "count"},
	{"memo.hit_ratio", "ratio"},
	{"sink.record_us", "us"},
	{"sink.index_us", "us"},
	{"store.bytes_per_req", "B"},
	{"parindex.best_pct", "%"},
	{"parindex.admit_ratio", "ratio"},
	{"parindex.front_size", "count"},
	{"service.self_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one workload's outcome.
type result struct {
	Metrics    map[string]metric `json:"metrics"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailedFrac float64           `json:"failed_frac"`
	// GenLagP99MS is how late optimize-open's generator dispatched (p99).
	GenLagP99MS float64  `json:"gen_lag_p99_ms,omitempty"`
	Errors      []string `json:"errors,omitempty"`
}

func newResult(defs []metricDef) *result {
	return &result{Metrics: make(map[string]metric, len(defs))}
}

// set records a metric, taking its unit from defs.
func (r *result) set(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("epbench: undefined metric " + name)
}

func (r *result) finish(f *failures) {
	r.Failed += f.n
	r.Errors = f.msgs
	r.FailedFrac = ratio(float64(r.Failed), float64(r.Attempted))
}

// config is one invocation's settings.
type config struct {
	dir          string // the bench directory: testdata/ and ../BENCHMARK.json
	out          string // where traced runs write their span files
	seed         int64
	seconds      time.Duration // timed window per workload
	warmup       time.Duration
	setupReps    int // setups per run; setup_s is their median
	ladderPoints int
}

type meta struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Warmup     float64 `json:"warmup"`
	Trace      bool    `json:"trace"`
}

type runFile struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("epbench", flag.ContinueOnError)
	only := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed (>= 0): every request seed and body derives from it")
	seconds := fs.Float64("seconds", 30, "timed seconds per workload")
	warmup := fs.Float64("warmup", 3, "untimed warm-up seconds per workload")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced replay, per-layer metrics")
	out := fs.String("out", "", "also write the result file here")
	update := fs.Bool("update", false, "regenerate testdata/golden.json and exit")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		dir:          ".",
		out:          "out",
		seed:         *seed,
		seconds:      time.Duration(*seconds * float64(time.Second)),
		warmup:       time.Duration(*warmup * float64(time.Second)),
		setupReps:    5,
		ladderPoints: 512,
	}
	ctx := context.Background()
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var ok bool
		if ok, err = compareFiles(cfg.dir, fs.Arg(0), fs.Arg(1)); err == nil && !ok {
			return 1
		}
	case *update:
		err = updateGolden(ctx, cfg)
	case *seed < 0 || *seconds <= 0 || *warmup < 0 || (*trace != 0 && *trace != 1):
		err = fmt.Errorf("need -seed >= 0, -seconds > 0, -warmup >= 0 and -trace 0 or 1")
	default:
		var ok bool
		if ok, err = runAll(ctx, cfg, *only, *trace == 1, *out); err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "epbench:", err)
		return 2
	}
	return 0
}

// runAll runs the selected workloads, prints their metrics and the JSON
// summary, and writes the result file. ok is false when a check failed.
func runAll(ctx context.Context, cfg config, only string, traced bool, out string) (bool, error) {
	selected := workloads
	if only != "" {
		w, err := workloadNamed(only)
		if err != nil {
			return false, err
		}
		selected = []*workload{w}
	}
	defs, runOne := endToEnd, runTimed
	if traced {
		defs, runOne = perLayer, runTraced
	}
	rf := runFile{Workloads: map[string]*result{}}
	summary := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]valueOfUnit `json:"metrics"`
	}{Metrics: map[string]valueOfUnit{}}
	for _, w := range selected {
		res, err := runOne(ctx, cfg, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		rf.Workloads[w.name] = res
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
		for _, d := range defs {
			m := res.Metrics[d.name]
			fmt.Printf("%s %s %.6g %s samples=%d\n", w.name, d.name, m.Value, m.Unit, m.Samples)
			key := d.name
			if len(selected) > 1 {
				key = w.name + "." + d.name
			}
			summary.Metrics[key] = valueOfUnit{m.Value, m.Unit}
		}
		fmt.Printf("# %s attempted=%d failed=%d failed_frac=%g\n", w.name, res.Attempted, res.Failed, res.FailedFrac)
		if w.open && !traced {
			fmt.Printf("# %s gen_lag_p99_ms=%.4g\n", w.name, res.GenLagP99MS)
		}
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "epbench: check failed:", e)
		}
	}
	summary.Correct = summary.Failed == 0
	if out != "" {
		rf.Meta = newMeta(cfg, traced)
		if err := writeJSON(out, rf); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return summary.Correct, nil
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runTimed is one workload's timed run: setup (repeated, median
// reported), warm-up, the timed window, then recomputation of the kept
// responses.
func runTimed(ctx context.Context, cfg config, w *workload) (*result, error) {
	golden, err := loadGolden(cfg.dir)
	if err != nil {
		return nil, err
	}
	fails := &failures{}
	var b *bench
	setups := make([]float64, 0, cfg.setupReps)
	for rep := 0; rep < max(1, cfg.setupReps); rep++ {
		if b != nil {
			if err := b.tgt.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if b, err = setup(ctx, cfg, w, golden, nil, fails); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ph, err := b.run(ctx, cfg.warmup, cfg.seconds)
	if err != nil {
		return nil, err
	}

	res := newResult(endToEnd)
	res.Attempted = ph.attempted
	secs := ph.elapsed.Seconds()
	res.set(endToEnd, "setup_s", median(setups), len(setups))
	res.set(endToEnd, "req_per_s", ratio(float64(ph.done), secs), ph.done)
	res.set(endToEnd, "points_per_s", ratio(float64(ph.points), secs), ph.points)
	res.set(endToEnd, "latency_p50_ms", percentile(ph.lat, 0.50), len(ph.lat))
	res.set(endToEnd, "latency_p99_ms", percentile(ph.lat, 0.99), len(ph.lat))
	res.set(endToEnd, "alloc_kb_per_req", ratio(float64(ph.allocBytes)/1024, float64(ph.done)), ph.done)
	res.set(endToEnd, "heap_p90_mb", percentile(ph.heap, 0.90)/(1<<20), len(ph.heap))
	res.GenLagP99MS = percentile(ph.lag, 0.99)
	if ph.done == 0 {
		fails.add("%s: no request completed in the timed window", w.name)
	}
	res.finish(fails)
	return res, nil
}

// runTraced is one workload's traced run: a half-length HTTP window for
// the untraced latency, then an untraced and a traced in-process replay
// of the same request sequence from the same primed state, interleaved,
// then the ladder.
func runTraced(ctx context.Context, cfg config, w *workload) (*result, error) {
	golden, err := loadGolden(cfg.dir)
	if err != nil {
		return nil, err
	}
	fails := &failures{}
	b, err := setup(ctx, cfg, w, golden, nil, fails)
	if err != nil {
		return nil, err
	}
	// One client: service.self_ms compares this window's latency with the
	// serial in-process replay, so the second client's contention stays out.
	b.fingerprint, b.clients = true, 1
	ph, err := b.run(ctx, cfg.warmup, cfg.seconds/2)
	if err != nil {
		return nil, err
	}

	plain, traced := newReplayer(), newReplayer()
	for _, rp := range []*replayer{plain, traced} {
		if err := rp.prime(ctx, b.gen); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	traced.tr = tr
	c0, x0 := traced.cache.Stats(), traced.index.Stats()
	plainDur, tracedDur, prints, err := replayBoth(ctx, b.gen, plain, traced, cfg.seconds/2, fails)
	if err != nil {
		return nil, err
	}
	c1, x1 := traced.cache.Stats(), traced.index.Stats()
	for i, p := range prints {
		if hp, ok := ph.prints[i]; ok && p != hp {
			fails.add("%s request %d: traced output differs from the HTTP response", w.name, i)
		}
	}
	lad, err := runLadder(ctx, b.gen, cfg.ladderPoints, fails)
	if err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, w, tr); err != nil {
		return nil, err
	}

	res := newResult(perLayer)
	res.Attempted = ph.attempted + len(plainDur) + len(tracedDur)
	reqs := len(tracedDur)
	set := func(name string, v float64, samples int) { res.set(perLayer, name, v, samples) }
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }
	mean := func(a agg, unit float64) float64 { return ratio(float64(a.Total)/unit, float64(a.Count)) }
	point, dev, stream := tr.get(spanPoint), tr.get(spanDevice), tr.get(spanStream)
	set("device.run_us", us(lad.device, lad.points), lad.points)
	set("device.runs", ratio(float64(dev.Count), float64(reqs)), reqs)
	set("device.point_pct", 100*ratio(float64(dev.Total), float64(point.Total)), point.Count)
	set("policy.self_pct", 100*ratio(float64(tr.get(spanPolicy).Self), float64(point.Total)), point.Count)
	set("meter.new_us", us(lad.newMeter, lad.points), lad.points)
	set("meter.measure_run_us", us(lad.measureRun, lad.measureRuns), lad.measureRuns)
	set("meter.samples_per_run", ratio(float64(lad.samples), float64(lad.measureRuns)), lad.measureRuns)
	set("stats.self_us", us(lad.measure-lad.measureRun, lad.points), lad.points)
	set("stats.reps_per_point", ratio(float64(lad.measureRuns), float64(lad.points)), lad.points)
	set("campaign.stream_ms", mean(stream, 1e6), stream.Count)
	set("campaign.point_self_us", ratio(float64(point.Self)/1e3, float64(point.Count)), point.Count)
	set("campaign.commit_us", mean(tr.get(spanCommit), 1e3), tr.get(spanCommit).Count)
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	set("memo.hits", float64(hits), reqs)
	set("memo.misses", float64(misses), reqs)
	set("memo.evictions", float64(c1.Evictions-c0.Evictions), reqs)
	set("memo.hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	set("sink.record_us", mean(tr.get(spanRecord), 1e3), tr.get(spanRecord).Count)
	set("sink.index_us", mean(tr.get(spanIndex), 1e3), tr.get(spanIndex).Count)
	set("store.bytes_per_req", ratio(float64(traced.recordBytes), float64(traced.sweeps)), traced.sweeps)
	set("parindex.best_pct", 100*ratio(float64(tr.get(spanBest).Total), float64(tr.get(spanRequest).Total)), tr.get(spanBest).Count)
	inserts := x1.Inserts - x0.Inserts
	set("parindex.admit_ratio", ratio(float64(x1.Admitted-x0.Admitted), float64(inserts)), int(inserts))
	set("parindex.front_size", ratio(float64(x1.Entries), float64(x1.Fronts)), x1.Fronts)
	plainMS := make([]float64, len(plainDur))
	for i, d := range plainDur {
		plainMS[i] = ms(d)
	}
	set("service.self_ms", percentile(ph.lat, 0.50)-percentile(plainMS, 0.50), len(ph.lat))
	n := min(len(plainDur), len(tracedDur))
	set("trace.overhead_pct", 100*(ratio(float64(sum(tracedDur[:n])), float64(sum(plainDur[:n])))-1), n)
	res.finish(fails)
	return res, nil
}

// writeTrace writes the traced replay's spans to trace-<workload>.json.
func writeTrace(cfg config, w *workload, tr *tracer) error {
	return writeJSON(filepath.Join(cfg.out, "trace-"+w.name+".json"), struct {
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Dropped  int             `json:"dropped_spans"`
		Layers   map[string]*agg `json:"layers"`
		Spans    []span          `json:"spans"`
	}{w.name, cfg.seed, tr.dropped, tr.aggs, tr.spans})
}

// goldenFile maps workload → golden seed → SHA-256 of the /sweep body.
type goldenFile map[string]map[string]string

func goldenPath(dir string) string { return filepath.Join(dir, "testdata", "golden.json") }

func loadGolden(dir string) (goldenFile, error) {
	data, err := os.ReadFile(goldenPath(dir))
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(dir), err)
	}
	return g, nil
}

// updateGolden regenerates the golden digests of every sweep workload.
func updateGolden(ctx context.Context, cfg config) error {
	g := goldenFile{}
	for _, w := range workloads {
		if w.open {
			continue
		}
		fails := &failures{}
		g[w.name] = map[string]string{}
		b, err := setup(ctx, cfg, w, nil, g[w.name], fails)
		if err != nil {
			return err
		}
		if err := b.tgt.close(); err != nil {
			return err
		}
		if fails.n > 0 {
			return fmt.Errorf("%s: %s", w.name, strings.Join(fails.msgs, "; "))
		}
	}
	return writeJSON(goldenPath(cfg.dir), g)
}

func newMeta(cfg config, traced bool) meta {
	m := meta{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Warmup:     cfg.warmup.Seconds(),
		Trace:      traced,
	}
	if out, err := exec.Command("git", "-C", cfg.dir, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "-C", cfg.dir, "status", "--porcelain").Output()
		m.Dirty = err != nil || len(st) > 0
	}
	return m
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
