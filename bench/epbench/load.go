package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"energyprop/internal/service"
)

// keepEvery: every keepEvery-th timed cold sweep (and /measure) response
// is kept and recomputed in-process after the window.
const keepEvery = 50

// clients is the number of load-generating goroutines and client
// connections: two, or fewer on a smaller machine, so load never needs
// more threads than the server has cores.
func clients() int { return min(2, runtime.NumCPU()) }

// target is the service under test: service.New().Handler() on a
// loopback listener, configured like cmd/epmeterd, plus its client.
type target struct {
	srv    *http.Server
	served chan error
	client *http.Client
	base   string
}

func startTarget() (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{
		srv:    &http.Server{Handler: service.New().Handler(), ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients(),
			MaxIdleConnsPerHost: clients(),
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { t.served <- t.srv.Serve(ln) }()
	return t, nil
}

// close shuts the server down and waits for it to stop serving.
func (t *target) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	t.client.CloseIdleConnections()
	return err
}

// reply is one HTTP response; body aliases the caller's buffer.
type reply struct {
	status int
	body   []byte
	misses string
}

func (t *target) do(ctx context.Context, r request, buf *bytes.Buffer) (reply, error) {
	method, path, payload := http.MethodPost, "/sweep", any(r.sweep)
	switch {
	case r.measure != nil:
		path, payload = "/measure", r.measure
	case r.opt != nil:
		method, path = http.MethodGet, r.opt.url
	}
	var body io.Reader
	if method == http.MethodPost {
		b, err := json.Marshal(payload)
		if err != nil {
			return reply{}, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, body)
	if err != nil {
		return reply{}, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return reply{}, fmt.Errorf("reading %s: %w", path, rerr)
	}
	return reply{status: resp.StatusCode, body: buf.Bytes(), misses: resp.Header.Get("X-Cache-Misses")}, nil
}

// failures counts failed checks and keeps the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 10 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) merge(o failures) {
	f.n += o.n
	for _, m := range o.msgs {
		if len(f.msgs) < 10 {
			f.msgs = append(f.msgs, m)
		}
	}
}

// kept is a response's fingerprint, saved for recomputation after the
// timed window (a fingerprint rather than the body, so the bookkeeping
// does not grow the heap being measured).
type kept struct {
	i  int
	fp string
}

// tally is one client goroutine's record of a phase.
type tally struct {
	lat       []float64 // ms, from send (closed loop) or due time (open loop)
	attempted int
	done      int
	points    int
	fails     failures
	keep      []kept
	prints    map[int]string // request index → output fingerprint, traced runs only
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.attempted += o.attempted
	t.done += o.done
	t.points += o.points
	t.fails.merge(o.fails)
	t.keep = append(t.keep, o.keep...)
	for i, p := range o.prints {
		t.prints[i] = p
	}
}

// bench is one workload's live run: the target, the request generator,
// and what setup learned for the checks.
type bench struct {
	w      *workload
	gen    *generator
	tgt    *target
	points []int // configurations per shape
	// primed holds sweep-warm's primed bodies by (shape, seed); misses is
	// X-Cache-Misses after priming, which the warm window must not move.
	primed map[primeKey][]byte
	misses string
	next   atomic.Int64 // next request index
	fails  *failures
	// clients is the closed loops' concurrency.
	clients int
	// fingerprint makes every response record its output fingerprint,
	// for comparison with the traced replay.
	fingerprint bool
}

type primeKey struct {
	shape int
	seed  int64
}

// setup starts a fresh target, checks the golden bodies and primes the
// caches the workload's window relies on. With golden == nil it records
// the golden digests into record instead of checking them.
func setup(ctx context.Context, cfg config, w *workload, golden goldenFile, record map[string]string, fails *failures) (*bench, error) {
	tgt, err := startTarget()
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, gen: newGenerator(w, cfg.seed), tgt: tgt, primed: map[primeKey][]byte{}, fails: fails, clients: clients()}
	if err := b.prepare(ctx, cfg.seed, golden, record); err != nil {
		if cerr := tgt.close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return b, nil
}

func (b *bench) prepare(ctx context.Context, seed int64, golden goldenFile, record map[string]string) error {
	for _, s := range b.w.shapes {
		_, _, configs, err := resolve(s.device, s.wl, s.policy, nil)
		if err != nil {
			return err
		}
		b.points = append(b.points, len(configs))
	}
	var buf bytes.Buffer
	if !b.w.open {
		for k := 0; k < goldenSeeds; k++ {
			r := b.gen.golden(k)
			rep, err := b.tgt.do(ctx, r, &buf)
			if err != nil {
				return err
			}
			seedKey := fmt.Sprint(r.sweep.Seed)
			got := sweepPrint(rep.body)
			switch {
			case rep.status != http.StatusOK:
				b.fails.add("%s golden seed %s: status %d", b.w.name, seedKey, rep.status)
			case record != nil:
				record[seedKey] = got
			case golden[b.w.name][seedKey] != got:
				b.fails.add("%s golden seed %s: body digest %s, want %s (regenerate with -update only if the change is intended)",
					b.w.name, seedKey, got, golden[b.w.name][seedKey])
			}
		}
	}
	var bodies [][]byte
	for _, r := range b.gen.primes() {
		rep, err := b.tgt.do(ctx, r, &buf)
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("priming %s seed %d: status %d: %s", r.sweep.Device, r.sweep.Seed, rep.status, rep.body)
		}
		body := bytes.Clone(rep.body)
		b.primed[primeKey{r.shape, r.sweep.Seed}] = body
		bodies = append(bodies, body)
		b.misses = rep.misses
	}
	if b.w.open {
		return b.gen.plan(seed, bodies)
	}
	return nil
}

// phase is the merged outcome of one load window.
type phase struct {
	tally
	elapsed    time.Duration
	allocBytes uint64
	heap       []float64 // heap object bytes every 100 ms
	lag        []float64 // open loop: ms the generator dispatched after the due time
}

// drive runs the workload's load for d. Timed phases keep responses for
// recomputation and sample the heap.
func (b *bench) drive(ctx context.Context, d time.Duration, timed bool) phase {
	var ph phase
	ph.prints = map[int]string{}
	if d <= 0 {
		return ph
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	heap := startHeapSampler()
	start := time.Now()
	n := b.clients
	if b.w.open {
		n = clients()
	}
	tallies := make([]tally, n)
	for i := range tallies {
		tallies[i].prints = map[int]string{}
	}
	if b.w.open {
		ph.lag = b.openLoop(ctx, d, timed, tallies)
	} else {
		b.closedLoop(ctx, d, timed, tallies)
	}
	ph.elapsed = time.Since(start)
	ph.heap = heap.stop()
	metrics.Read(allocs)
	ph.allocBytes = allocs[0].Value.Uint64() - before
	for i := range tallies {
		ph.merge(&tallies[i])
	}
	return ph
}

// run drives the warm-up, then the timed window d, shuts the target down
// and recomputes the kept responses. It returns the timed window, with
// the warm-up's requests added to its attempted count and fingerprints;
// every failure goes to b.fails.
func (b *bench) run(ctx context.Context, warmup, d time.Duration) (phase, error) {
	warm := b.drive(ctx, warmup, false)
	ph := b.drive(ctx, d, true)
	cerr := b.tgt.close()
	if err := b.verify(ctx, ph.keep); err != nil {
		return ph, err
	}
	ph.attempted += warm.attempted
	for i, p := range warm.prints {
		ph.prints[i] = p
	}
	b.fails.merge(warm.fails)
	b.fails.merge(ph.fails)
	return ph, cerr
}

// closedLoop: each client sends its next request when the previous one
// has completed, until d has passed.
func (b *bench) closedLoop(ctx context.Context, d time.Duration, timed bool, tallies []tally) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(b.next.Add(1) - 1)
				r := b.gen.at(i)
				sent := time.Now()
				rep, err := b.tgt.do(ctx, r, &buf)
				b.observe(tl, i, r, rep, err, time.Since(sent), timed)
			}
		}(&tallies[c])
	}
	wg.Wait()
}

// openLoop dispatches openRate requests per second on a fixed schedule to
// the clients, whatever the server's pace, and times each request from
// its due time, so a stall is charged to every request queued behind it.
// It returns the generator's dispatch lag per request.
func (b *bench) openLoop(ctx context.Context, d time.Duration, timed bool, tallies []tally) []float64 {
	type slot struct {
		i   int
		due time.Time
	}
	n := max(1, int(d.Seconds()*openRate))
	first := int(b.next.Add(int64(n))) - n
	// One second of schedule: a backlog waits here and shows in latency
	// from due time. A longer stall blocks the generator, which shows as
	// generator lag; latency is still timed from each due time.
	queue := make(chan slot, openRate)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			var buf bytes.Buffer
			for s := range queue {
				r := b.gen.at(s.i)
				rep, err := b.tgt.do(ctx, r, &buf)
				b.observe(tl, s.i, r, rep, err, time.Since(s.due), timed)
			}
		}(&tallies[c])
	}
	lag := make([]float64, 0, n)
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * time.Second / openRate)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag = append(lag, ms(time.Since(due)))
		queue <- slot{first + k, due}
	}
	close(queue)
	wg.Wait()
	return lag
}

// observe checks one response and records it in the client's tally.
func (b *bench) observe(tl *tally, i int, r request, rep reply, err error, lat time.Duration, timed bool) {
	tl.attempted++
	fail := func(format string, args ...any) {
		tl.fails.add("%s request %d: "+format, append([]any{b.w.name, i}, args...)...)
	}
	if err != nil {
		fail("%v", err)
		return
	}
	if rep.status != http.StatusOK {
		fail("status %d: %.200s", rep.status, rep.body)
		return
	}
	switch {
	case r.sweep != nil:
		if !bytes.HasPrefix(rep.body, []byte(`{"version":`)) {
			fail("not a campaign record: %.200s", rep.body)
			return
		}
		if b.w.pool != nil {
			if !bytes.Equal(rep.body, b.primed[primeKey{r.shape, r.sweep.Seed}]) {
				fail("warm body differs from the primed body for seed %d", r.sweep.Seed)
				return
			}
			if rep.misses != b.misses {
				fail("X-Cache-Misses moved from %s to %s in the warm window", b.misses, rep.misses)
				return
			}
		} else if timed && i%keepEvery == 0 {
			tl.keep = append(tl.keep, kept{i, sweepPrint(rep.body)})
		}
		if b.fingerprint {
			tl.prints[i] = sweepPrint(rep.body)
		}
		tl.points += b.points[r.shape]
	case r.measure != nil:
		var m service.MeasureResponse
		if err := json.Unmarshal(rep.body, &m); err != nil || m.Key != r.measure.Config {
			fail("bad /measure reply: %.200s", rep.body)
			return
		}
		fp := measurePrint(m.Key, m.MeasuredEnergyJ, m.Runs)
		if timed && (i/measureEvery)%keepEvery == 0 {
			tl.keep = append(tl.keep, kept{i, fp})
		}
		if b.fingerprint {
			tl.prints[i] = fp
		}
		tl.points++
	default:
		if msg := checkOptimize(r.opt, rep.body); msg != "" {
			fail("%s", msg)
			return
		}
	}
	tl.done++
	if timed {
		tl.lat = append(tl.lat, ms(lat))
	}
}

// checkOptimize validates an /optimize answer against its query; the
// answer itself moves as /measure points join the front.
func checkOptimize(q *optQuery, body []byte) string {
	var o service.OptimizeResponse
	if err := json.Unmarshal(body, &o); err != nil {
		return fmt.Sprintf("bad /optimize reply: %.200s", body)
	}
	switch {
	case o.Device != q.key.Device || o.N != q.key.N || o.Products != q.key.Products || o.Config == "" || o.FrontSize < 1:
		return fmt.Sprintf("/optimize answered another key: %.200s", body)
	case q.q.MaxTime > 0 && (o.Objective != "dyn_energy_j" || o.Seconds > q.q.MaxTime):
		return fmt.Sprintf("/optimize broke max_time %g: %.200s", q.q.MaxTime, body)
	case q.q.MaxEnergy > 0 && (o.Objective != "seconds" || o.DynEnergyJ > q.q.MaxEnergy):
		return fmt.Sprintf("/optimize broke max_energy %g: %.200s", q.q.MaxEnergy, body)
	}
	return ""
}

// verify recomputes the kept responses with a serial in-process campaign
// on a fresh cache and compares their fingerprints: the SHA-256 of the
// body for a sweep, the exact energy bits for a /measure.
func (b *bench) verify(ctx context.Context, keep []kept) error {
	for _, k := range keep {
		want, err := newReplayer().do(ctx, b.gen.at(k.i))
		if err != nil {
			return err
		}
		if k.fp != want {
			b.fails.add("%s request %d: response differs from the serial in-process recomputation", b.w.name, k.i)
		}
	}
	return nil
}

// heapSampler samples the bytes in heap objects (reachable or not yet
// swept) every 100 ms.
type heapSampler struct {
	done     chan struct{}
	finished chan struct{}
	samples  []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(h.finished)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the samples.
func (h *heapSampler) stop() []float64 {
	close(h.done)
	<-h.finished
	return h.samples
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}
