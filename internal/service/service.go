// Package service exposes the measurement stack over HTTP — the analog of
// running HCLWattsUp as a lab service that experiment scripts call into:
//
//	GET  /healthz                         liveness
//	GET  /devices                         the registered device catalog
//	                                      (GPU, CPU, and hetero backends)
//	POST /measure   {device, workload, config, seed}
//	                                      one configuration (by its key,
//	                                      e.g. "bs=24/g=1/r=8"), measured
//	                                      with the paper's statistical loop
//	POST /sweep     {device, workload, seed, workers}
//	                                      a full measured campaign,
//	                                      returned as a store.CampaignRecord
//	GET  /optimize?device=…&n=…&max_energy=…
//	                                      best configuration under a
//	                                      time/energy constraint, answered
//	                                      from the incremental Pareto index
//	                                      in microseconds — no sweep runs
//	GET  /stats                           measurement-cache counters
//	                                      (hits, misses, dedups,
//	                                      evictions, inflight, size) and
//	                                      Pareto-index counters
//
// All bodies are JSON. Unknown fields are rejected so client typos
// surface as errors rather than silently defaulted parameters. Devices
// come from the internal/device registry, so every registered backend —
// k40c, p100, haswell, legacy-xeon, hetero — is measurable through the
// same campaign engine; an unknown device name gets a 400 listing the
// known ones. Sweeps run on the parallel campaign engine: "workers"
// bounds the fan-out (default GOMAXPROCS) without changing the returned
// record, and a client that disconnects mid-campaign cancels the worker
// pool through the request context.
//
// Measured points are memoized in one per-process content-addressed
// cache shared by /measure and /sweep: a point is a pure function of
// (device, workload, config key, seed), so repeated and overlapping
// requests are answered from the cache with bit-identical values, and
// concurrent identical requests collapse to a single device run
// (singleflight). Responses carry an X-Cache-Hits/X-Cache-Misses header
// pair with the cache totals after the request. Clients that need a
// fresh computation (e.g. cache-bypass benchmarking) set "nocache":
// true in the request body.
//
// Both measurement endpoints degrade gracefully under failure. A
// request may set "timeout_ms" (the campaign is cancelled and answered
// 504 past the deadline), "retries" (a per-point budget of extra
// measurement attempts; a retried point is byte-identical to one that
// succeeded first try), and "faults" (a deterministic fault-injection
// schedule for chaos testing, mirroring `gpusweep -faults`). A sweep
// whose points partially fail answers 206 Partial Content with the
// failures in the record's "failed" section and their count in the
// X-Points-Failed header; a sweep with no survivors answers 502. A
// client disconnect is recorded as 499 (client closed request), never
// as a 500.
//
// A sweep may also choose its executor: "local" (default) runs the
// in-process worker pool; "fleet" shards the campaign across simulated
// worker nodes (internal/fleet) with per-tick health checks, cordoning,
// and automatic remediation, tunable via "nodes", "shard_size", and a
// "node_faults" chaos schedule (preemptions, flapping health,
// stragglers). The returned record is byte-identical to a local sweep —
// that is the fleet's headline invariant — and the control-plane
// activity is reported in X-Fleet-Shards/-Preemptions/-Cordons/
// -Remediations headers.
//
// Both measurement endpoints accept an energy policy: "policy" ("race",
// "paced", or "all") with optional "slack" (deadline window as a
// multiple of the busy interval, in [1, MaxRequestSlack]) and "floor"
// (deep-idle floor as a fraction of active idle, in [0,
// MaxRequestFloor)). The device is wrapped by internal/policy, so a
// policy sweep covers the policy × configuration cross product and its
// record keys carry the "pol=…" prefix; /optimize takes a matching
// "policy" query parameter to restrict the front to one strategy.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/fleet"
	"energyprop/internal/memo"
	"energyprop/internal/parindex"
	"energyprop/internal/policy"
)

// Request ceilings. The meter samples runs at WattsUp rate (seconds of
// simulated time per sample), so a workload's simulated duration bounds
// the service's memory and CPU per request; these caps keep any single
// request within a sane envelope while comfortably covering the paper's
// largest study (N=18432, Products=8). They apply to every backend.
const (
	// MaxRequestN is the largest accepted matrix dimension.
	MaxRequestN = 32768
	// MaxRequestProducts is the largest accepted product count.
	MaxRequestProducts = 64
	// MaxRequestWorkers is the largest accepted sweep fan-out.
	MaxRequestWorkers = 256
	// CacheCapacity bounds the per-process measured-point cache (LRU
	// eviction beyond it). The paper's largest sweep has 110
	// configurations, so this holds dozens of distinct campaigns.
	CacheCapacity = 8192
	// MaxRequestRetries is the largest accepted per-point retry budget
	// (extra attempts beyond the first).
	MaxRequestRetries = 8
	// MaxRequestTimeoutMS caps the client-requested deadline; longer
	// requests should be split, not parked on a handler goroutine.
	MaxRequestTimeoutMS = 10 * 60 * 1000
	// MaxRequestNodes caps the simulated fleet size of an
	// executor:"fleet" sweep; DefaultRequestNodes is used when the
	// request does not name one.
	MaxRequestNodes     = 64
	DefaultRequestNodes = 4
	// MaxRequestSlack caps the policy deadline window (as a multiple of
	// the busy interval): the meter integrates the whole window, so the
	// slack multiplies the samples per point.
	MaxRequestSlack = 8
	// MaxRequestFloor caps the policy deep-idle floor fraction below the
	// active-idle baseline, keeping the static/dynamic decomposition
	// meaningful.
	MaxRequestFloor = 0.95
	// MaxRequestBodyBytes caps a request body; the largest legitimate
	// body is a few hundred bytes.
	MaxRequestBodyBytes = 1 << 20
)

// StatusClientClosedRequest is the nginx-convention 499 recorded when
// the client disconnected mid-campaign: the response never reaches the
// client, but middleware and tests must not observe a 500 for what was
// a client-side abort.
const StatusClientClosedRequest = 499

// checkWorkloadLimits rejects workloads that validate structurally but
// exceed the service's resource envelope.
func checkWorkloadLimits(w device.Workload) error {
	if w.N > MaxRequestN {
		return fmt.Errorf("workload N=%d exceeds service limit %d", w.N, MaxRequestN)
	}
	if w.Products > MaxRequestProducts {
		return fmt.Errorf("workload Products=%d exceeds service limit %d", w.Products, MaxRequestProducts)
	}
	return nil
}

// knownDevice rejects a device name the registry does not know; the
// error enumerates the registered ones.
func knownDevice(name string) error {
	if name == "" {
		return fmt.Errorf("missing device name (known: %s)", deviceNames())
	}
	_, err := device.Open(name)
	return err
}

func deviceNames() string {
	out := ""
	for i, name := range device.List() {
		if i > 0 {
			out += ", "
		}
		out += name
	}
	return out
}

// Server is the HTTP measurement service.
type Server struct {
	mux *http.ServeMux
	// cache is the per-process measured-point cache shared by /measure
	// and /sweep. Handlers open devices fresh from the registry per
	// request, so the name-keyed cache entries always describe registry
	// behaviour (the sharing precondition of campaign.PointCache).
	cache *campaign.PointCache
	// index is the per-process incremental Pareto-front index. Every
	// measured point that flows through /measure or /sweep is streamed
	// into it (an IndexSink fans out of the campaign pipeline), so
	// /optimize answers constraint queries from memory without running a
	// single device measurement. Keys use registry device names — the
	// same names clients pass to the measurement endpoints.
	index *parindex.Index
}

// New builds the server.
func New() *Server {
	s := &Server{
		mux:   http.NewServeMux(),
		cache: campaign.NewPointCache(CacheCapacity),
		index: parindex.NewIndex(),
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/devices", s.handleDevices)
	s.mux.HandleFunc("/measure", s.handleMeasure)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/optimize", s.handleOptimize)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// campaignSpec builds the request's campaign spec: the shared cache is
// attached unless the client opted out with "nocache".
func (s *Server) campaignSpec(seed int64, nocache bool) campaign.Spec {
	spec := campaign.DefaultSpec(seed)
	if !nocache {
		spec.Cache = s.cache
	}
	return spec
}

// setCacheHeaders exposes the cache totals on a measurement response, so
// a client can tell warm from cold without a second /stats round trip.
func (s *Server) setCacheHeaders(w http.ResponseWriter) {
	st := s.cache.Stats()
	w.Header().Set("X-Cache-Hits", strconv.FormatUint(st.Hits, 10))
	w.Header().Set("X-Cache-Misses", strconv.FormatUint(st.Misses, 10))
}

// StatsResponse is the /stats reply.
type StatsResponse struct {
	Cache memo.Stats     `json:"cache"`
	Index parindex.Stats `json:"index"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{Cache: s.cache.Stats(), Index: s.index.Stats()})
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	type deviceInfo struct {
		Name     string  `json:"name"`
		Kind     string  `json:"kind"`
		Catalog  string  `json:"catalog_name"`
		TDPWatts float64 `json:"tdp_watts"`
		IdleW    float64 `json:"idle_power_w"`
	}
	var out []deviceInfo
	for _, name := range device.List() {
		d, err := device.Open(name)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		spec := d.Spec()
		out = append(out, deviceInfo{
			Name: name, Kind: d.Kind(), Catalog: spec.CatalogName,
			TDPWatts: spec.TDPWatts, IdleW: spec.IdlePowerW,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// FaultRequest enables deterministic fault injection for one request —
// the service-side analog of `gpusweep -faults`, used for chaos testing
// the pipeline end to end. Fields mirror fault.Plan: per-attempt
// probabilities of a transient run failure, a meter-sample dropout, and
// an outlier reading, plus a latency bound in milliseconds. The
// schedule derives entirely from the seed, so a replayed request
// injects identical faults.
type FaultRequest struct {
	Seed      int64   `json:"seed"`
	Transient float64 `json:"transient,omitempty"`
	Drop      float64 `json:"drop,omitempty"`
	Outlier   float64 `json:"outlier,omitempty"`
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// plan converts the request body to the injector's schedule.
func (f *FaultRequest) plan() fault.Plan {
	return fault.Plan{
		Seed:      f.Seed,
		Transient: f.Transient,
		Drop:      f.Drop,
		Outlier:   f.Outlier,
		Latency:   time.Duration(f.LatencyMS * float64(time.Millisecond)),
	}
}

// requestContext applies the client's requested deadline to the request
// context. timeout_ms == 0 means no extra deadline; out-of-range values
// are client errors.
func requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, error) {
	if timeoutMS < 0 || timeoutMS > MaxRequestTimeoutMS {
		return nil, nil, fmt.Errorf("timeout_ms=%d out of range 0..%d", timeoutMS, MaxRequestTimeoutMS)
	}
	if timeoutMS == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	return ctx, cancel, nil
}

// retryPolicy validates a request's retry budget. Service retries are
// immediate (no backoff sleep): the request deadline bounds total time,
// and parking a handler goroutine in sleeps would only burn it.
func retryPolicy(retries int) (fault.RetryPolicy, error) {
	if retries < 0 || retries > MaxRequestRetries {
		return fault.RetryPolicy{}, fmt.Errorf("retries=%d out of range 0..%d", retries, MaxRequestRetries)
	}
	return fault.RetryPolicy{MaxAttempts: retries + 1}, nil
}

// PolicyParams are the optional energy-policy fields shared by /measure
// and /sweep. A named policy wraps the device before configurations are
// enumerated, so every configuration key gains a "pol=…/s=…/f=…/"
// prefix and the measured energies are integrated over the deadline
// window against the deep-idle floor (internal/policy).
type PolicyParams struct {
	// Policy selects the strategy: "race", "paced", or "all" (the cross
	// product). Empty means no policy wrapper.
	Policy string `json:"policy,omitempty"`
	// Slack is the deadline window as a multiple of the busy interval;
	// 0 means the policy default (1.5). Capped at MaxRequestSlack.
	Slack float64 `json:"slack,omitempty"`
	// Floor is the deep-idle floor as a fraction of active idle power;
	// 0 means the policy default (0.3). Capped at MaxRequestFloor.
	Floor float64 `json:"floor,omitempty"`
}

// options validates the policy fields and resolves them to wrapper
// options; nil means no policy was requested. Plan.Open checks the
// resolved options.
func (p PolicyParams) options() (*policy.Options, error) {
	if p.Policy == "" {
		if p.Slack != 0 || p.Floor != 0 {
			return nil, fmt.Errorf(`slack and floor require a policy (known: %v, or "all")`, policy.Strategies())
		}
		return nil, nil
	}
	var strategies []string
	if p.Policy != "all" {
		if !policy.ValidStrategy(p.Policy) {
			return nil, fmt.Errorf(`unknown policy %q (known: %v, or "all")`, p.Policy, policy.Strategies())
		}
		strategies = []string{p.Policy}
	}
	if math.IsNaN(p.Slack) || p.Slack < 0 || p.Slack > MaxRequestSlack {
		return nil, fmt.Errorf("slack=%v out of range [1, %d] (0 = default)", p.Slack, MaxRequestSlack)
	}
	if math.IsNaN(p.Floor) || p.Floor < 0 || p.Floor > MaxRequestFloor {
		return nil, fmt.Errorf("floor=%v out of range [0, %g) (0 = default)", p.Floor, MaxRequestFloor)
	}
	return &policy.Options{Strategies: strategies, Slack: p.Slack, FloorFrac: p.Floor}, nil
}

// MeasureRequest is the /measure body. Config is the configuration's
// canonical key as enumerated by the device — "bs=24/g=1/r=8" on a GPU,
// "contiguous/p=2/t=12" on a CPU, "haswell=2/k40c=3/p100=3" on the
// hetero ensemble (with a "pol=…/s=…/f=…/" prefix under a policy).
type MeasureRequest struct {
	Device   string          `json:"device"`
	Workload device.Workload `json:"workload"`
	Config   string          `json:"config"`
	Seed     int64           `json:"seed"`
	// PolicyParams optionally wrap the device under an energy policy.
	PolicyParams
	// Nocache bypasses the per-process measured-point cache for this
	// request: the point is recomputed (bit-identical by construction)
	// and the result is not stored.
	Nocache bool `json:"nocache,omitempty"`
	// TimeoutMS bounds the request's wall-clock time; past it the
	// campaign is cancelled and the reply is 504. 0 means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Retries is the per-point retry budget: extra measurement attempts
	// after a failure (capped at MaxRequestRetries).
	Retries int `json:"retries,omitempty"`
	// Faults, when present, injects a deterministic fault schedule.
	Faults *FaultRequest `json:"faults,omitempty"`
}

// MeasureResponse is the /measure reply.
type MeasureResponse struct {
	Device          string  `json:"device"`
	Config          string  `json:"config"`
	Key             string  `json:"key"`
	Seconds         float64 `json:"seconds"`
	MeasuredEnergyJ float64 `json:"measured_energy_j"`
	HalfWidthJ      float64 `json:"ci_halfwidth_j"`
	Runs            int     `json:"runs"`
	// Attempts is the number of measurement attempts consumed
	// (1 = first try; >1 means the retry budget recovered the point).
	Attempts int `json:"attempts"`
}

// openStack validates the part of a request body that selects the
// device stack — device, workload, policy, and fault schedule — and
// opens it on the given fleet (nil: the local pool). It returns the
// stack, the normalized workload, and its enumerated configurations.
// Each request gets fresh device instances, so ablation state cannot
// leak between calls. All failures are client errors.
func openStack(name string, w device.Workload, pol PolicyParams, faults *FaultRequest, fl *fleet.Options) (*fleet.Stack, device.Workload, []device.Config, error) {
	if name == "" {
		return nil, w, nil, knownDevice(name)
	}
	popts, err := pol.options()
	if err != nil {
		return nil, w, nil, err
	}
	plan := fleet.Plan{Device: name, Policy: popts, Fleet: fl}
	w = w.Normalized()
	if err := w.Validate(); err != nil {
		return nil, w, nil, err
	}
	if err := checkWorkloadLimits(w); err != nil {
		return nil, w, nil, err
	}
	if faults != nil {
		// Bound the injected latency by the maximum request deadline: an
		// uncapped latency_ms would let one request park a handler (and
		// its device runs) for arbitrary wall-clock time.
		if math.IsNaN(faults.LatencyMS) || faults.LatencyMS < 0 || faults.LatencyMS > MaxRequestTimeoutMS {
			return nil, w, nil, fmt.Errorf("faults.latency_ms %v out of [0, %d]", faults.LatencyMS, MaxRequestTimeoutMS)
		}
		plan.Faults = faults.plan()
	}
	st, err := plan.Open()
	if err != nil {
		return nil, w, nil, err
	}
	configs, err := st.Ref.Configs(w)
	if err != nil {
		return nil, w, nil, err
	}
	return st, w, configs, nil
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req MeasureRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	st, wl, configs, err := openStack(req.Device, req.Workload, req.PolicyParams, req.Faults, nil)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var chosen device.Config
	for _, c := range configs {
		if c.Key() == req.Config {
			chosen = c
			break
		}
	}
	if chosen == nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"unknown config %q for device %q (%d valid configurations, e.g. %q)",
			req.Config, req.Device, len(configs), configs[0].Key()))
		return
	}
	ctx, cancel, err := requestContext(r, req.TimeoutMS)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()
	spec := s.campaignSpec(req.Seed, req.Nocache)
	spec.Retry, err = retryPolicy(req.Retries)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec.ContinueOnError = true
	// One-point campaign: /measure flows through the same streaming
	// engine as full sweeps, so seeding, statistics, retries, and caching
	// are identical — a /measure of a point a /sweep already computed is
	// a cache hit, and N concurrent identical /measure requests collapse
	// to one device run. The IndexSink feeds the measured point into the
	// Pareto index, so even single-point probes grow /optimize coverage.
	rs := campaign.NewResultSink(st.Ref, wl)
	sink := campaign.MultiSink{rs, campaign.NewIndexSink(s.index, req.Device, wl)}
	if err := campaign.Stream(ctx, st.Dev, wl, []device.Config{chosen}, spec, sink); err != nil {
		writeCampaignError(w, err)
		return
	}
	res := rs.Result()
	s.setCacheHeaders(w)
	if len(res.Points) == 0 {
		f := res.Failed[0]
		w.Header().Set("X-Points-Failed", "1")
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":    f.Err.Error(),
			"config":   f.Config.Key(),
			"attempts": f.Attempts,
		})
		return
	}
	p := res.Points[0]
	writeJSON(w, http.StatusOK, MeasureResponse{
		Device:          res.Device,
		Config:          p.Config.String(),
		Key:             p.Config.Key(),
		Seconds:         p.TrueSeconds,
		MeasuredEnergyJ: p.MeasuredEnergyJ,
		HalfWidthJ:      p.HalfWidthJ,
		Runs:            p.Runs,
		Attempts:        p.Attempts,
	})
}

// SweepRequest is the /sweep body.
type SweepRequest struct {
	Device   string          `json:"device"`
	Workload device.Workload `json:"workload"`
	Seed     int64           `json:"seed"`
	// PolicyParams optionally wrap the device under an energy policy:
	// the sweep covers policy × configuration and the record's keys
	// carry the "pol=…" prefix.
	PolicyParams
	// Workers bounds the campaign's fan-out; 0 means GOMAXPROCS. The
	// returned record is identical for every worker count.
	Workers int `json:"workers"`
	// Nocache bypasses the per-process measured-point cache for this
	// sweep; see MeasureRequest.Nocache.
	Nocache bool `json:"nocache,omitempty"`
	// TimeoutMS bounds the sweep's wall-clock time (504 past it);
	// 0 means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Retries is the per-point retry budget. With any budget the sweep
	// degrades gracefully: points that stay failed are returned in the
	// record's "failed" section (206 Partial Content, X-Points-Failed
	// header) and Pareto analysis runs over the survivors.
	Retries int `json:"retries,omitempty"`
	// Faults, when present, injects a deterministic fault schedule.
	Faults *FaultRequest `json:"faults,omitempty"`
	// Executor selects the fan-out strategy: "local" (default, the
	// in-process worker pool) or "fleet" (the sweep is sharded across
	// simulated worker nodes with health checks, cordoning, and
	// remediation — internal/fleet). The record is byte-identical either
	// way; fleet mode exists to exercise the control plane and is
	// reported through the X-Fleet-* response headers.
	Executor string `json:"executor,omitempty"`
	// Nodes is the fleet size (executor "fleet" only); 0 means
	// DefaultRequestNodes, capped at MaxRequestNodes.
	Nodes int `json:"nodes,omitempty"`
	// ShardSize is the number of configurations per fleet shard; 0
	// derives one shard per node.
	ShardSize int `json:"shard_size,omitempty"`
	// NodeFaults, when present, injects a deterministic node-failure
	// schedule (preemptions, flapping health checks, stragglers) into
	// the fleet — the node-level analog of Faults.
	NodeFaults *NodeFaultRequest `json:"node_faults,omitempty"`
}

// NodeFaultRequest mirrors fleet.Chaos: a deterministic node-failure
// schedule for executor:"fleet" sweeps. Probabilities are per draw
// (preempt per shard dispatch, flaky per node-tick health check, slow
// per dispatch); the whole schedule derives from the seed, so a
// replayed request replays the identical cordon/remediate/preempt
// interleaving.
type NodeFaultRequest struct {
	Seed      int64   `json:"seed"`
	Preempt   float64 `json:"preempt,omitempty"`
	Flaky     float64 `json:"flaky,omitempty"`
	Slow      float64 `json:"slow,omitempty"`
	SlowTicks int64   `json:"slow_ticks,omitempty"`
}

// chaos converts the request body to the fleet's schedule.
func (n *NodeFaultRequest) chaos() fleet.Chaos {
	return fleet.Chaos{
		Seed:      n.Seed,
		Preempt:   n.Preempt,
		Flaky:     n.Flaky,
		Slow:      n.Slow,
		SlowTicks: fleet.Tick(n.SlowTicks),
	}
}

// sweepFleet validates a sweep's executor knobs and returns the fleet
// they select; nil means the local pool.
func sweepFleet(req *SweepRequest) (*fleet.Options, error) {
	switch req.Executor {
	case "", "local":
		if req.Nodes != 0 || req.ShardSize != 0 || req.NodeFaults != nil {
			return nil, errors.New(`nodes, shard_size, and node_faults require executor "fleet"`)
		}
		return nil, nil
	case "fleet":
	default:
		return nil, fmt.Errorf("unknown executor %q (want \"local\" or \"fleet\")", req.Executor)
	}
	nodes := req.Nodes
	if nodes == 0 {
		nodes = DefaultRequestNodes
	}
	if nodes < 1 || nodes > MaxRequestNodes {
		return nil, fmt.Errorf("nodes=%d out of range 1..%d", req.Nodes, MaxRequestNodes)
	}
	opts := &fleet.Options{Nodes: nodes, ShardSize: req.ShardSize}
	if req.NodeFaults != nil {
		opts.Chaos = req.NodeFaults.chaos()
	}
	return opts, nil
}

// setFleetHeaders exposes a fleet sweep's control-plane activity.
func setFleetHeaders(w http.ResponseWriter, coord *fleet.Coordinator) {
	st := coord.Stats()
	w.Header().Set("X-Fleet-Shards", strconv.Itoa(st.Shards))
	w.Header().Set("X-Fleet-Preemptions", strconv.Itoa(st.Preemptions))
	w.Header().Set("X-Fleet-Cordons", strconv.Itoa(st.Cordons))
	w.Header().Set("X-Fleet-Remediations", strconv.Itoa(st.Remediations))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Workers < 0 || req.Workers > MaxRequestWorkers {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("workers=%d out of range 0..%d", req.Workers, MaxRequestWorkers))
		return
	}
	fl, err := sweepFleet(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, wl, configs, err := openStack(req.Device, req.Workload, req.PolicyParams, req.Faults, fl)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel, err := requestContext(r, req.TimeoutMS)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer cancel()
	spec := s.campaignSpec(req.Seed, req.Nocache)
	spec.Workers = req.Workers
	spec.Retry, err = retryPolicy(req.Retries)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec.ContinueOnError = true
	spec.Executor = st.Executor
	// The sweep streams: outcomes fan out to a compact record writer
	// (the response body is serialized as points commit, never holding a
	// materialized []PointReport), the Pareto index behind /optimize, and
	// the counters that drive the status decision. The record writer's
	// compact output is byte-identical to encoding a materialized
	// store.CampaignRecord, so clients see the exact same wire format the
	// materialized path produced.
	var body bytes.Buffer
	rsink, err := campaign.NewRecordSink(&body, st.Ref, wl, true)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	counts := &campaign.CountingSink{}
	sink := campaign.MultiSink{rsink, campaign.NewIndexSink(s.index, req.Device, wl), counts}
	if err := campaign.Stream(ctx, st.Dev, wl, configs, spec, sink); err != nil {
		writeCampaignError(w, err)
		return
	}
	s.setCacheHeaders(w)
	if st.Coord != nil {
		setFleetHeaders(w, st.Coord)
	}
	if n := counts.Failed(); n > 0 {
		w.Header().Set("X-Points-Failed", strconv.Itoa(n))
	}
	if counts.Accepted() == 0 {
		// No survivors: the buffered record (failures only) is discarded
		// in favor of the explicit 502 body.
		msg := "unknown error"
		if ferr := counts.FirstFailure(); ferr != nil {
			msg = ferr.Error()
		}
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":       fmt.Sprintf("all %d points failed", counts.Failed()),
			"first_error": msg,
		})
		return
	}
	// Partial survival is a partial answer: 206 plus the failed section
	// lets a client keep the survivors and re-request only the holes.
	status := http.StatusOK
	if counts.Failed() > 0 {
		status = http.StatusPartialContent
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore droppederr the status line is already sent; a write failure here means the client went away
	_, _ = w.Write(body.Bytes())
}

// writeCampaignError maps a campaign failure to its transport status.
// The audit contract: context errors are never 500s — a deadline expiry
// is 504 Gateway Timeout, and a client disconnect is recorded as 499
// (the nginx client-closed-request convention; the body is best-effort
// since the client is gone, but logs and middleware see the truth).
func writeCampaignError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "campaign exceeded its deadline: "+err.Error())
	case errors.Is(err, context.Canceled):
		httpError(w, StatusClientClosedRequest, "client closed request")
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// decodeJSON decodes exactly one JSON value from the request body into
// dst and answers the client itself when it cannot: 413 past
// MaxRequestBodyBytes, 400 for malformed JSON, unknown fields, or any
// non-whitespace data after the value.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBodyBytes))
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(dst)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, &tooBig) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, fmt.Sprintf("bad request body: %v", err))
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore droppederr the status line is already sent; an encode failure here means the client went away
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
