package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/parindex"
	"energyprop/internal/policy"
	"energyprop/internal/store"
)

// TestSweepPolicyCrossProduct: a policy:"all" sweep covers the policy ×
// configuration cross product, every key carries the policy prefix, and
// both strategies appear.
func TestSweepPolicyCrossProduct(t *testing.T) {
	ts := newTestServer(t)
	w := device.Workload{App: device.AppSpMV, N: 2048, Products: 1}
	plain := postJSON(t, ts.URL+"/sweep", SweepRequest{Device: "p100", Workload: w, Seed: 1})
	if plain.StatusCode != http.StatusOK {
		t.Fatalf("plain sweep status %d", plain.StatusCode)
	}
	base, err := store.LoadCampaign(plain.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Device: "p100", Workload: w, Seed: 1,
		PolicyParams: PolicyParams{Policy: "all", Slack: 2, Floor: 0.4},
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("policy sweep status %d: %s", resp.StatusCode, body)
	}
	rec, err := store.LoadCampaign(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 2*len(base.Results) {
		t.Fatalf("policy sweep has %d points, want %d (strategies × configs)",
			len(rec.Results), 2*len(base.Results))
	}
	perStrategy := map[string]int{}
	for _, r := range rec.Results {
		if !strings.HasPrefix(r.Config, "pol=") {
			t.Fatalf("policy point key %q lacks the pol= prefix", r.Config)
		}
		if !strings.Contains(r.Config, "/s=2/f=0.4/") {
			t.Errorf("key %q does not carry the request's slack/floor", r.Config)
		}
		for _, s := range policy.Strategies() {
			if strings.HasPrefix(r.Config, "pol="+s+"/") {
				perStrategy[s]++
			}
		}
	}
	for _, s := range policy.Strategies() {
		if perStrategy[s] != len(base.Results) {
			t.Errorf("strategy %q covers %d configs, want %d", s, perStrategy[s], len(base.Results))
		}
	}
}

// TestMeasurePolicyMatchesSweepPoint: /measure with the same policy
// fields and a key from a policy sweep reproduces the swept value —
// a policy point is just another cacheable configuration.
func TestMeasurePolicyMatchesSweepPoint(t *testing.T) {
	ts := newTestServer(t)
	w := device.Workload{App: device.AppStencil, N: 64, Products: 1}
	pp := PolicyParams{Policy: "race", Slack: 1.5, Floor: 0.3}
	sweep := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Device: "haswell", Workload: w, Seed: 11, PolicyParams: pp,
	})
	if sweep.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(sweep.Body)
		t.Fatalf("sweep status %d: %s", sweep.StatusCode, body)
	}
	rec, err := store.LoadCampaign(sweep.Body)
	if err != nil {
		t.Fatal(err)
	}
	target := rec.Results[len(rec.Results)/2]
	measure := postJSON(t, ts.URL+"/measure", MeasureRequest{
		Device: "haswell", Workload: w, Config: target.Config, Seed: 11, PolicyParams: pp,
	})
	if measure.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(measure.Body)
		t.Fatalf("measure status %d: %s", measure.StatusCode, body)
	}
	var out MeasureResponse
	if err := json.NewDecoder(measure.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.MeasuredEnergyJ != target.DynEnergyJ {
		t.Errorf("measure %v J vs sweep point %v J — policy endpoints diverge",
			out.MeasuredEnergyJ, target.DynEnergyJ)
	}
	if !strings.HasPrefix(out.Key, "pol=race/") {
		t.Errorf("measure key %q lacks the policy prefix", out.Key)
	}
}

// TestSweepPolicyFleetByteIdenticalToLocal: the fleet executor hosts the
// policy wrapper on every node, so a sharded policy sweep returns the
// byte-identical record of a local one.
func TestSweepPolicyFleetByteIdenticalToLocal(t *testing.T) {
	ts := newTestServer(t)
	w := device.Workload{App: device.AppSpMV, N: 2048, Products: 1}
	get := func(executor string, nodes int) []byte {
		resp := postJSON(t, ts.URL+"/sweep", SweepRequest{
			Device: "p100", Workload: w, Seed: 4, Nocache: true,
			Executor: executor, Nodes: nodes,
			PolicyParams: PolicyParams{Policy: "all"},
		})
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s sweep status %d: %s", executor, resp.StatusCode, body)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	local := get("local", 0)
	sharded := get("fleet", 3)
	if !bytes.Equal(local, sharded) {
		t.Errorf("policy records differ between local and fleet executors:\n%s\n%s", local, sharded)
	}
}

// TestPolicyRequestValidation: malformed policy fields are client errors
// on both endpoints, and the unknown-policy 400 lists the registered
// strategies.
func TestPolicyRequestValidation(t *testing.T) {
	ts := newTestServer(t)
	w := device.Workload{N: 1024, Products: 2}
	cases := []struct {
		name string
		pp   PolicyParams
	}{
		{"unknown policy", PolicyParams{Policy: "sprint"}},
		{"slack without policy", PolicyParams{Slack: 2}},
		{"floor without policy", PolicyParams{Floor: 0.5}},
		{"slack above cap", PolicyParams{Policy: "race", Slack: MaxRequestSlack + 1}},
		{"slack below one", PolicyParams{Policy: "race", Slack: 0.5}},
		{"floor above cap", PolicyParams{Policy: "paced", Floor: 0.96}},
		{"negative floor", PolicyParams{Policy: "paced", Floor: -0.1}},
	}
	for _, tc := range cases {
		for _, path := range []string{"/sweep", "/measure"} {
			req := map[string]any{"device": "p100", "workload": w,
				"policy": tc.pp.Policy, "slack": tc.pp.Slack, "floor": tc.pp.Floor}
			if path == "/measure" {
				req["config"] = "bs=8/g=1/r=2"
			}
			resp := postJSON(t, ts.URL+path, req)
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", path, tc.name, resp.StatusCode, body)
			}
			if tc.name == "unknown policy" {
				for _, s := range policy.Strategies() {
					if !strings.Contains(string(body), s) {
						t.Errorf("%s %s: error %q does not list strategy %q", path, tc.name, body, s)
					}
				}
			}
		}
	}
}

// TestOptimizePolicyFilter: the policy query parameter restricts the
// front to one strategy's points; the fastest point is always a race
// point (it finishes with the work) so the race filter must answer.
func TestOptimizePolicyFilter(t *testing.T) {
	ts := newTestServer(t)
	w := device.Workload{App: device.AppSpMV, N: 2048, Products: 1}
	sweep := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Device: "p100", Workload: w, Seed: 2,
		PolicyParams: PolicyParams{Policy: "all"},
	})
	if sweep.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", sweep.StatusCode)
	}
	io.Copy(io.Discard, sweep.Body)
	for _, pol := range policy.Strategies() {
		resp, err := http.Get(ts.URL + "/optimize?device=p100&app=spmv&n=2048&products=1&max_energy=1e12&policy=" + pol)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			// Legitimate only when the other strategy dominates every one
			// of this strategy's points; race always holds the time end.
			if pol == policy.RaceToIdle {
				t.Errorf("race filter answered 404: %s", body)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("policy=%s: status %d: %s", pol, resp.StatusCode, body)
		}
		var out OptimizeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.Config, "pol="+pol+"/") {
			t.Errorf("policy=%s answered config %q from another strategy", pol, out.Config)
		}
		if out.Policy != pol || out.FrontSize < 1 {
			t.Errorf("policy=%s response %+v", pol, out)
		}
	}
	// Unknown policy is a 400 listing the registered strategies.
	resp, err := http.Get(ts.URL + "/optimize?device=p100&app=spmv&n=2048&products=1&max_energy=1e12&policy=sprint")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown policy: status %d, want 400", resp.StatusCode)
	}
	for _, s := range policy.Strategies() {
		if !strings.Contains(string(body), s) {
			t.Errorf("unknown-policy error %q does not list %q", body, s)
		}
	}
	// A policy filter over an unswept workload is a 404, not a 500.
	resp, err = http.Get(ts.URL + "/optimize?device=k40c&app=spmv&n=2048&products=1&max_energy=1e12&policy=race")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unswept policy query: status %d, want 404", resp.StatusCode)
	}
}

// TestOptimizePolicyMatchesBruteForce: under a policy filter, /optimize
// answers max_time, max_energy and both together exactly as a linear
// scan of the strategy's points on the front does — minimum energy
// within a time budget, minimum time within an energy budget — and is a
// 404 when no point qualifies.
func TestOptimizePolicyMatchesBruteForce(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	w := device.Workload{App: device.AppDense, N: 4096, Products: 8}
	sweep := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Device: "p100", Workload: w, Seed: 2,
		PolicyParams: PolicyParams{Policy: "all"},
	})
	if sweep.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", sweep.StatusCode)
	}
	io.Copy(io.Discard, sweep.Body)
	wl := w.Normalized()
	entries := srv.index.Entries(parindex.Key{Device: "p100", App: wl.App, N: wl.N, Products: wl.Products})

	scan := func(points []parindex.Entry, q parindex.Query) (parindex.Entry, bool) {
		var best parindex.Entry
		found := false
		for _, e := range points {
			if (q.MaxTime > 0 && e.Time > q.MaxTime) || (q.MaxEnergy > 0 && e.Energy > q.MaxEnergy) {
				continue
			}
			if !found || (q.MaxTime > 0 && e.Energy < best.Energy) || (q.MaxTime == 0 && e.Time < best.Time) {
				best, found = e, true
			}
		}
		return best, found
	}
	asked := 0
	for _, pol := range policy.Strategies() {
		var points []parindex.Entry
		for _, e := range entries {
			if strings.HasPrefix(e.Config, "pol="+pol+"/") {
				points = append(points, e)
			}
		}
		var queries []parindex.Query
		for i, e := range points {
			other := points[len(points)-1-i]
			queries = append(queries,
				parindex.Query{MaxTime: e.Time},
				parindex.Query{MaxEnergy: e.Energy},
				parindex.Query{MaxTime: e.Time, MaxEnergy: other.Energy},
				parindex.Query{MaxTime: e.Time * 0.999, MaxEnergy: e.Energy * 1.001})
		}
		queries = append(queries, parindex.Query{MaxTime: 1e-12}, parindex.Query{MaxEnergy: 1e-12})
		for _, q := range queries {
			url := fmt.Sprintf("%s/optimize?device=p100&app=%s&n=%d&products=%d&policy=%s", ts.URL, wl.App, wl.N, wl.Products, pol)
			if q.MaxTime > 0 {
				url += "&max_time=" + strconv.FormatFloat(q.MaxTime, 'g', -1, 64)
			}
			if q.MaxEnergy > 0 {
				url += "&max_energy=" + strconv.FormatFloat(q.MaxEnergy, 'g', -1, 64)
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			asked++
			want, ok := scan(points, q)
			if !ok {
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("policy=%s %+v: status %d, want 404 (%s)", pol, q, resp.StatusCode, body)
				}
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("policy=%s %+v: status %d, want %s (%s)", pol, q, resp.StatusCode, want.Config, body)
				continue
			}
			var out OptimizeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Config != want.Config || out.FrontSize != len(points) {
				t.Errorf("policy=%s %+v: answered %s (front %d), brute force %s (front %d)",
					pol, q, out.Config, out.FrontSize, want.Config, len(points))
			}
		}
	}
	if asked < 20 {
		t.Fatalf("only %d queries asked — the policy sweep left too few front points", asked)
	}
}
