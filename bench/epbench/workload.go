package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/parindex"
	"energyprop/internal/policy"
	"energyprop/internal/service"
	"energyprop/internal/store"
)

// shape is one /sweep request family: a registry device, a workload and
// an optional energy policy ("all" = race × paced).
type shape struct {
	device string
	wl     device.Workload
	policy string
}

var (
	p100Dgemm     = shape{device: "p100", wl: device.Workload{N: 10240, Products: 8}}
	k40cDgemm     = shape{device: "k40c", wl: device.Workload{N: 10240, Products: 8}}
	haswellPolicy = shape{device: "haswell", wl: device.Workload{N: 1024, Products: 1}, policy: "all"}
	haswellDgemm  = shape{device: "haswell", wl: device.Workload{N: 1024, Products: 1}}
	haswellFFT    = shape{device: "haswell", wl: device.Workload{App: device.AppFFT, N: 1024, Products: 1}}
	heteroDgemm   = shape{device: "hetero", wl: device.Workload{N: 4096, Products: 3}}
)

// workload is one traffic mix. Closed-loop workloads cycle their shapes
// through /sweep; the open-loop one queries /optimize over its shapes'
// primed fronts and interleaves /measure calls.
type workload struct {
	name   string
	shapes []shape
	// pool bounds the distinct seeds per shape (sweep-warm, so every
	// request is a primed memo hit); nil means a fresh seed per request.
	pool []int
	open bool
}

var workloads = []*workload{
	{name: "sweep-gpu-cold", shapes: []shape{p100Dgemm}},
	{name: "sweep-cpu-policy-cold", shapes: []shape{haswellPolicy}},
	{name: "sweep-warm", shapes: []shape{p100Dgemm, haswellFFT}, pool: []int{8, 4}},
	{name: "optimize-open", shapes: []shape{p100Dgemm, k40cDgemm, haswellDgemm, heteroDgemm}, open: true},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Open-loop schedule of optimize-open: one request per millisecond, every
// measureEvery-th of them a /measure.
const (
	openRate     = 1000
	measureEvery = 20
	// goldenSeeds is how many fixed seeds per sweep workload
	// testdata/golden.json pins. Golden seeds are negative, so they lie
	// outside every run's timed seed range.
	goldenSeeds = 4
)

// request is one generated call. Exactly one field is set.
type request struct {
	sweep   *service.SweepRequest
	measure *service.MeasureRequest
	opt     *optQuery
	// shape indexes the workload's shapes for a sweep.
	shape int
}

// optQuery is one /optimize constraint query against a primed front.
type optQuery struct {
	key parindex.Key
	q   parindex.Query
	url string
}

func sweepRequest(s shape, seed int64) *service.SweepRequest {
	return &service.SweepRequest{
		Device:       s.device,
		Workload:     s.wl,
		Seed:         seed,
		PolicyParams: service.PolicyParams{Policy: s.policy},
		Workers:      1,
	}
}

// generator derives a run's requests from its seed alone; the server
// sees nothing else.
type generator struct {
	w    *workload
	base int64 // seed << 32: one run's request seeds never meet another run's
	// queries and measureKeys are optimize-open's, built from the
	// priming records.
	queries     []optQuery
	measureKeys []string
}

func newGenerator(w *workload, seed int64) *generator {
	return &generator{w: w, base: seed << 32}
}

// at returns the i-th request of the run.
func (g *generator) at(i int) request {
	w := g.w
	if w.open {
		if i%measureEvery == measureEvery-1 {
			return request{measure: &service.MeasureRequest{
				Device:   p100Dgemm.device,
				Workload: p100Dgemm.wl,
				Config:   g.measureKeys[(i/measureEvery)%len(g.measureKeys)],
				Seed:     g.base + int64(i),
			}}
		}
		return request{opt: &g.queries[i%len(g.queries)]}
	}
	s := i % len(w.shapes)
	seed := g.base + int64(i)
	if w.pool != nil {
		seed = g.base + int64((i/len(w.shapes))%w.pool[s])
	}
	return request{sweep: sweepRequest(w.shapes[s], seed), shape: s}
}

// primes lists the sweeps a run issues before timing starts: every
// distinct request of sweep-warm, one campaign per optimize-open front.
func (g *generator) primes() []request {
	var out []request
	switch {
	case g.w.open:
		for s, sh := range g.w.shapes {
			out = append(out, request{sweep: sweepRequest(sh, g.base+int64(s)), shape: s})
		}
	case g.w.pool != nil:
		for s, n := range g.w.pool {
			for k := 0; k < n; k++ {
				out = append(out, request{sweep: sweepRequest(g.w.shapes[s], g.base+int64(k)), shape: s})
			}
		}
	}
	return out
}

// golden returns the k-th golden request of a sweep workload.
func (g *generator) golden(k int) request {
	s := k % len(g.w.shapes)
	return request{sweep: sweepRequest(g.w.shapes[s], -int64(k+1)), shape: s}
}

// plan builds optimize-open's query table and /measure rotation from the
// priming records (one per shape, in shape order). Each constraint is the
// time or energy of a seed-chosen measured point, so every query is
// feasible however the front grows.
func (g *generator) plan(seed int64, bodies [][]byte) error {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]store.CampaignRecord, len(bodies))
	for s, b := range bodies {
		if err := json.Unmarshal(b, &recs[s]); err != nil {
			return fmt.Errorf("priming record %d: %w", s, err)
		}
		if len(recs[s].Results) == 0 {
			return fmt.Errorf("priming record %d has no points", s)
		}
	}
	g.measureKeys = nil
	for _, p := range recs[0].Results {
		g.measureKeys = append(g.measureKeys, p.Config)
	}
	g.queries = nil
	for range 8 {
		for _, byTime := range []bool{true, false} {
			for s, sh := range g.w.shapes {
				wl := sh.wl.Normalized()
				p := recs[s].Results[rng.Intn(len(recs[s].Results))]
				q := optQuery{key: parindex.Key{Device: sh.device, App: wl.App, N: wl.N, Products: wl.Products}}
				v := url.Values{"device": {sh.device}, "app": {wl.App}, "n": {strconv.Itoa(wl.N)}, "products": {strconv.Itoa(wl.Products)}}
				if byTime {
					q.q.MaxTime = p.Seconds
					v.Set("max_time", strconv.FormatFloat(p.Seconds, 'g', -1, 64))
				} else {
					q.q.MaxEnergy = p.DynEnergyJ
					v.Set("max_energy", strconv.FormatFloat(p.DynEnergyJ, 'g', -1, 64))
				}
				q.url = "/optimize?" + v.Encode()
				g.queries = append(g.queries, q)
			}
		}
	}
	return nil
}

// resolve opens a request's device the way the service does: the
// registry device, wrapped under the request's policy, with its
// configurations for the normalized workload. wrap, when non-nil, is
// applied to the registry device and again to the policy device.
func resolve(name string, wl device.Workload, pol string, wrap func(device.Device, string) device.Device) (device.Device, device.Workload, []device.Config, error) {
	dev, err := device.Open(name)
	if err != nil {
		return nil, wl, nil, err
	}
	if wrap != nil {
		dev = wrap(dev, spanDevice)
	}
	if pol != "" {
		var strategies []string
		if pol != "all" {
			strategies = []string{pol}
		}
		pd, err := policy.Wrap(dev, policy.Options{Strategies: strategies})
		if err != nil {
			return nil, wl, nil, err
		}
		dev = pd
		if wrap != nil {
			dev = wrap(dev, spanPolicy)
		}
	}
	wl = wl.Normalized()
	configs, err := dev.Configs(wl)
	if err != nil {
		return nil, wl, nil, err
	}
	return dev, wl, configs, nil
}

// campaignSpec is the spec the service builds for a request.
func campaignSpec(seed int64, workers int, cache *campaign.PointCache) campaign.Spec {
	spec := campaign.DefaultSpec(seed)
	spec.Cache = cache
	spec.Workers = workers
	spec.ContinueOnError = true
	return spec
}
