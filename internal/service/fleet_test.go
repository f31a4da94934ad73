package service

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"testing"

	"energyprop/internal/device"
)

// fleetSweepBody is the canonical fleet request the tests drive: a
// small GPU sweep sharded across 3 chaos-ridden nodes.
func fleetSweepBody(extra map[string]any) map[string]any {
	body := map[string]any{
		"device":   "p100",
		"workload": device.Workload{N: 4096, Products: 2},
		"seed":     31,
		"executor": "fleet",
		"nodes":    3,
		"node_faults": map[string]any{
			"seed":    9,
			"preempt": 0.3,
			"flaky":   0.2,
			"slow":    0.3,
		},
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

// TestSweepFleetByteIdenticalToLocal is the service-level face of the
// fleet invariant: the same sweep answered through executor "fleet"
// (with node chaos injected) and through the default local pool returns
// byte-identical record bodies.
func TestSweepFleetByteIdenticalToLocal(t *testing.T) {
	ts := newTestServer(t)
	read := func(body map[string]any) ([]byte, *http.Response) {
		resp := postJSON(t, ts.URL+"/sweep", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw, resp
	}
	local, _ := read(map[string]any{
		"device":   "p100",
		"workload": device.Workload{N: 4096, Products: 2},
		"seed":     31,
		"nocache":  true,
	})
	fleetRec, resp := read(fleetSweepBody(map[string]any{"nocache": true, "shard_size": 2}))
	if !bytes.Equal(fleetRec, local) {
		t.Errorf("fleet sweep body differs from local sweep body\nlocal: %s\nfleet: %s", local, fleetRec)
	}
	if shards := resp.Header.Get("X-Fleet-Shards"); shards == "" || shards == "0" {
		t.Errorf("X-Fleet-Shards = %q", shards)
	}
	pre, err := strconv.Atoi(resp.Header.Get("X-Fleet-Preemptions"))
	if err != nil || pre == 0 {
		t.Errorf("X-Fleet-Preemptions = %q — chaos sweep injected nothing", resp.Header.Get("X-Fleet-Preemptions"))
	}
}

// TestSweepFleetSharesPointCache pins the cache interaction: fleet node
// devices carry the registry identity, so a fleet sweep warms the same
// per-process cache a local sweep reads.
func TestSweepFleetSharesPointCache(t *testing.T) {
	ts := newTestServer(t)
	warm := postJSON(t, ts.URL+"/sweep", fleetSweepBody(nil))
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warming fleet sweep: status %d", warm.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/sweep", map[string]any{
		"device":   "p100",
		"workload": device.Workload{N: 4096, Products: 2},
		"seed":     31,
	})
	defer resp.Body.Close()
	misses := resp.Header.Get("X-Cache-Misses")
	hits := resp.Header.Get("X-Cache-Hits")
	h, err := strconv.Atoi(hits)
	if err != nil || h == 0 {
		t.Errorf("local sweep after fleet warm-up: hits=%s misses=%s", hits, misses)
	}
}

// TestSweepFleetKnobValidation pins every 400 path of the executor
// knobs.
func TestSweepFleetKnobValidation(t *testing.T) {
	ts := newTestServer(t)
	base := func() map[string]any {
		return map[string]any{
			"device":   "haswell",
			"workload": device.Workload{N: 48, Products: 1},
			"seed":     7,
		}
	}
	cases := []struct {
		name  string
		patch map[string]any
	}{
		{"unknown executor", map[string]any{"executor": "cloud"}},
		{"nodes without fleet", map[string]any{"nodes": 3}},
		{"shard_size without fleet", map[string]any{"shard_size": 2}},
		{"node_faults without fleet", map[string]any{"node_faults": map[string]any{"seed": 1}}},
		{"nodes over cap", map[string]any{"executor": "fleet", "nodes": MaxRequestNodes + 1}},
		{"negative shard size", map[string]any{"executor": "fleet", "shard_size": -1}},
		{"bad device fault probability", map[string]any{
			"executor": "fleet",
			"faults":   map[string]any{"seed": 1, "transient": 1.5},
		}},
		{"bad chaos probability", map[string]any{
			"executor":    "fleet",
			"node_faults": map[string]any{"seed": 1, "preempt": 1.5},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := base()
			for k, v := range tc.patch {
				body[k] = v
			}
			resp := postJSON(t, ts.URL+"/sweep", body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				raw, _ := io.ReadAll(resp.Body)
				t.Errorf("status %d, want 400 (%s)", resp.StatusCode, raw)
			}
		})
	}
}

// TestSweepFleetWithDeviceFaults layers device faults under node chaos
// through the HTTP path: with a retry budget the sweep still answers
// 200 with a full record.
func TestSweepFleetWithDeviceFaults(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/sweep", fleetSweepBody(map[string]any{
		"nocache": true,
		"retries": MaxRequestRetries,
		"faults":  map[string]any{"seed": 97, "transient": 0.2, "drop": 0.05},
	}))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if failed := resp.Header.Get("X-Points-Failed"); failed != "" {
		t.Errorf("X-Points-Failed = %q under a full retry budget", failed)
	}
}
