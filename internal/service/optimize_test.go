package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/pareto"
	"energyprop/internal/store"
)

// TestSweepBodyByteCompatible pins the wire format across the streaming
// refactor: the /sweep body — now serialized incrementally by a
// RecordSink as points commit — must be byte-identical to JSON-encoding
// a materialized store.CampaignRecord, which is what the endpoint
// returned before the sink pipeline existed.
func TestSweepBodyByteCompatible(t *testing.T) {
	ts := newTestServer(t)
	wl := device.Workload{N: 4096, Products: 2}
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{Device: "p100", Workload: wl, Seed: 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	dev, err := device.Open("p100")
	if err != nil {
		t.Fatal(err)
	}
	configs, err := dev.Configs(wl.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.DefaultSpec(9)
	spec.ContinueOnError = true
	want, failed := encodedRecord(t, dev, wl, configs, spec)
	if failed != 0 {
		t.Fatalf("%d points failed", failed)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("streamed /sweep body differs from encoded materialized record\n got: %s\nwant: %s", got, want)
	}
}

// encodedRecord runs the campaign in-process through a compact
// RecordSink and returns json.Encoder's encoding of the record those
// bytes decode to — having checked that decoding and re-encoding
// reproduces them, so the record is exactly what encoding a
// materialized store.CampaignRecord gives — and the failure count.
func encodedRecord(t *testing.T, dev device.Device, wl device.Workload, configs []device.Config, spec campaign.Spec) ([]byte, int) {
	t.Helper()
	var streamed bytes.Buffer
	rs, err := campaign.NewRecordSink(&streamed, dev, wl, true)
	if err != nil {
		t.Fatal(err)
	}
	counts := &campaign.CountingSink{}
	if err := campaign.Stream(context.Background(), dev, wl, configs, spec, campaign.MultiSink{rs, counts}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.LoadCampaign(bytes.NewReader(streamed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) {
		t.Fatalf("RecordSink bytes differ from the encoded record\n got: %s\nwant: %s", streamed.Bytes(), want.Bytes())
	}
	return want.Bytes(), counts.Failed()
}

// TestDegradedSweepBodyByteCompatible is the same pin on the 206 shape:
// a partially-failed streamed sweep carries the identical results +
// failed sections the materialized path encoded.
func TestDegradedSweepBodyByteCompatible(t *testing.T) {
	ts := newTestServer(t)
	wl := device.Workload{N: 48, Products: 1}
	faults := &FaultRequest{Seed: 97, Transient: 0.25, Drop: 0.1}
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Device: "haswell", Workload: wl, Seed: 9, Faults: faults,
	})
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("status %d, want 206 (degraded sweep)", resp.StatusCode)
	}
	if resp.Header.Get("X-Points-Failed") == "" {
		t.Error("206 without X-Points-Failed header")
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	dev, err := device.Open("haswell")
	if err != nil {
		t.Fatal(err)
	}
	fdev, err := fault.Wrap(dev, faults.plan())
	if err != nil {
		t.Fatal(err)
	}
	configs, err := fdev.Configs(wl.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.DefaultSpec(9)
	spec.Retry = fault.RetryPolicy{MaxAttempts: 1}
	spec.ContinueOnError = true
	want, failed := encodedRecord(t, fdev, wl, configs, spec)
	if failed == 0 {
		t.Fatal("no failures injected — the degraded comparison is vacuous")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("degraded streamed body differs\n got: %s\nwant: %s", got, want)
	}
}

func getOptimize(t *testing.T, base, params string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/optimize?" + params)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestOptimizeAnswersFromIndex is the tentpole's serving-path round
// trip: a /sweep populates the index, and /optimize then answers
// constraint queries against the sweep's own Pareto front without
// running any measurement.
func TestOptimizeAnswersFromIndex(t *testing.T) {
	ts := newTestServer(t)
	wl := device.Workload{N: 4096, Products: 2}
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{Device: "p100", Workload: wl, Seed: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	rec, err := store.LoadCampaign(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	front := pareto.Front(rec.Points())
	if len(front) < 2 {
		t.Fatalf("front of %d points is too small to exercise constraints", len(front))
	}
	missesBefore := getStats(t, ts.URL).Misses

	// Labels on the front come from rec.Points; map back to config keys.
	labelToKey := map[string]string{}
	for _, p := range rec.Results {
		labelToKey[p.Label] = p.Config
	}

	mid := front[len(front)/2]
	cases := []struct {
		name      string
		params    string
		want      pareto.Point
		objective string
	}{
		// max_energy at an exact front energy: minimum time with energy
		// ≤ that is the point itself (boundary inclusive).
		{"max_energy", fmt.Sprintf("device=p100&n=%d&products=%d&max_energy=%v", wl.N, wl.Products, mid.Energy), mid, "seconds"},
		// max_time at an exact front time: minimum energy within it.
		{"max_time", fmt.Sprintf("device=p100&n=%d&products=%d&max_time=%v", wl.N, wl.Products, mid.Time), mid, "dyn_energy_j"},
		// A generous energy budget admits the whole front; fastest wins.
		{"loose_energy", fmt.Sprintf("device=p100&n=%d&products=%d&max_energy=%v", wl.N, wl.Products, front[0].Energy*2), front[0], "seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oresp := getOptimize(t, ts.URL, tc.params)
			if oresp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(oresp.Body)
				t.Fatalf("status %d: %s", oresp.StatusCode, body)
			}
			var out OptimizeResponse
			if err := json.NewDecoder(oresp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Label != tc.want.Label || out.Seconds != tc.want.Time || out.DynEnergyJ != tc.want.Energy {
				t.Errorf("answer %+v, want point %+v", out, tc.want)
			}
			if out.Config != labelToKey[tc.want.Label] {
				t.Errorf("config %q, want key %q for label %q", out.Config, labelToKey[tc.want.Label], tc.want.Label)
			}
			if out.Objective != tc.objective {
				t.Errorf("objective %q, want %q", out.Objective, tc.objective)
			}
			if out.FrontSize != len(front) {
				t.Errorf("front_size %d, want %d", out.FrontSize, len(front))
			}
			if out.Device != "p100" || out.App != "dgemm" || out.N != wl.N || out.Products != wl.Products {
				t.Errorf("key echo %+v", out)
			}
		})
	}

	// The serving path must not measure: cache misses are unchanged
	// across every /optimize above.
	if missesAfter := getStats(t, ts.URL).Misses; missesAfter != missesBefore {
		t.Errorf("optimize ran measurements: cache misses %d -> %d", missesBefore, missesAfter)
	}
}

// TestOptimizeNotFound separates the two 404s: a workload no campaign
// covered versus a covered workload whose front has no feasible point.
func TestOptimizeNotFound(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Device: "haswell", Workload: device.Workload{N: 48, Products: 1}, Seed: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	_, _ = io.Copy(io.Discard, resp.Body)

	// Uncovered key: nothing swept N=64 on haswell.
	oresp := getOptimize(t, ts.URL, "device=haswell&n=64&products=1&max_energy=100")
	if oresp.StatusCode != http.StatusNotFound {
		t.Fatalf("uncovered: status %d, want 404", oresp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(oresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "no indexed campaign") {
		t.Errorf("uncovered error %q", body["error"])
	}

	// Covered key, infeasible constraint: an energy budget below the
	// front's minimum admits nothing.
	oresp = getOptimize(t, ts.URL, "device=haswell&n=48&products=1&max_energy=1e-9")
	if oresp.StatusCode != http.StatusNotFound {
		t.Fatalf("infeasible: status %d, want 404", oresp.StatusCode)
	}
	if err := json.NewDecoder(oresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "front holds") {
		t.Errorf("infeasible error %q should cite the front size", body["error"])
	}
}

// TestOptimizeRejectsBadQueries covers the 400/405 surface.
func TestOptimizeRejectsBadQueries(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name   string
		params string
	}{
		{"missing device", "n=4096&max_energy=10"},
		{"unknown device", "device=gtx480&n=4096&max_energy=10"},
		{"missing n", "device=p100&max_energy=10"},
		{"bad n", "device=p100&n=banana&max_energy=10"},
		{"negative n", "device=p100&n=-4&max_energy=10"},
		{"no constraint", "device=p100&n=4096&products=2"},
		{"bad max_energy", "device=p100&n=4096&max_energy=nope"},
		{"negative max_energy", "device=p100&n=4096&max_energy=-1"},
		{"nan max_time", "device=p100&n=4096&max_time=NaN"},
		{"bad products", "device=p100&n=4096&products=0&max_energy=10"},
		{"unknown app", "device=p100&n=4096&app=raytrace&max_energy=10"},
	}
	for _, tc := range cases {
		resp := getOptimize(t, ts.URL, tc.params)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/optimize", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /optimize: status %d, want 405", resp.StatusCode)
	}
}

// TestMeasureGrowsOptimizeCoverage: a single /measure probe indexes its
// point, so /optimize can answer for that workload with a one-entry
// front.
func TestMeasureGrowsOptimizeCoverage(t *testing.T) {
	ts := newTestServer(t)
	wl := device.Workload{N: 2048, Products: 1}
	dev, err := device.Open("p100")
	if err != nil {
		t.Fatal(err)
	}
	configs, err := dev.Configs(wl.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	key := configs[0].Key()
	resp := postJSON(t, ts.URL+"/measure", MeasureRequest{
		Device:   "p100",
		Workload: wl,
		Config:   key,
		Seed:     1,
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("measure status %d: %s", resp.StatusCode, body)
	}
	var m MeasureResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	oresp := getOptimize(t, ts.URL, fmt.Sprintf("device=p100&n=2048&products=1&max_time=%v", m.Seconds))
	if oresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(oresp.Body)
		t.Fatalf("optimize status %d: %s", oresp.StatusCode, body)
	}
	var out OptimizeResponse
	if err := json.NewDecoder(oresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Config != key || out.FrontSize != 1 {
		t.Errorf("answer %+v, want the measured config on a 1-entry front", out)
	}
	if out.Seconds != m.Seconds || out.DynEnergyJ != m.MeasuredEnergyJ {
		t.Errorf("indexed coordinates (%v, %v) != measured (%v, %v)",
			out.Seconds, out.DynEnergyJ, m.Seconds, m.MeasuredEnergyJ)
	}
}

// TestStatsReportsIndex: /stats exposes the Pareto-index counters next
// to the cache's.
func TestStatsReportsIndex(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Device: "haswell", Workload: device.Workload{N: 48, Products: 1}, Seed: 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	_, _ = io.Copy(io.Discard, resp.Body)

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Index.Fronts != 1 || st.Index.Entries == 0 {
		t.Errorf("index stats after one sweep: %+v", st.Index)
	}
	if st.Index.Inserts == 0 || st.Index.Admitted == 0 || st.Index.Admitted > st.Index.Inserts {
		t.Errorf("insert counters inconsistent: %+v", st.Index)
	}
	oresp := getOptimize(t, ts.URL, "device=haswell&n=48&products=1&max_energy=1e12")
	_, _ = io.Copy(io.Discard, oresp.Body)
	if oresp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d", oresp.StatusCode)
	}
	sresp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp2.Body.Close()
	var st2 StatsResponse
	if err := json.NewDecoder(sresp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.Index.Queries != st.Index.Queries+1 || st2.Index.Hits != st.Index.Hits+1 {
		t.Errorf("query counters did not advance: %+v -> %+v", st.Index, st2.Index)
	}
}
