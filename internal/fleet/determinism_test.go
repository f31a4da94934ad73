package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/policy"
	"energyprop/internal/store"
)

// fleetBackends are the backend kinds the headline invariant must hold
// on — one GPU, one CPU, one heterogeneous — with workloads small
// enough for tier-1.
func fleetBackends() []struct {
	name string
	w    device.Workload
} {
	return []struct {
		name string
		w    device.Workload
	}{
		{"p100", device.Workload{N: 4096, Products: 2}},
		{"haswell", device.Workload{N: 48, Products: 1}},
		{"hetero", device.Workload{N: 256, Products: 3}},
	}
}

// runRecord runs a full-config campaign under the given spec and
// returns its serialized record.
func runRecord(t testing.TB, dev device.Device, w device.Workload, spec campaign.Spec) []byte {
	t.Helper()
	rec := runRecordStruct(t, dev, w, spec)
	return marshalRecord(t, rec)
}

// runRecordStruct streams a full-config campaign through an indented
// RecordSink and loads the record back, so runRecord re-encodes it with
// encoding/json.
func runRecordStruct(t testing.TB, dev device.Device, w device.Workload, spec campaign.Spec) *store.CampaignRecord {
	t.Helper()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rs, err := campaign.NewRecordSink(&buf, dev, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := campaign.Stream(context.Background(), dev, w, configs, spec, rs); err != nil {
		t.Fatal(err)
	}
	rec, err := store.LoadCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// marshalRecord serializes a materialized record the way the indented
// store.CampaignWriter streams one, for byte comparison.
func marshalRecord(t testing.TB, rec *store.CampaignRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// zeroAttempts strips retry provenance before byte comparison (used
// only when device-level faults are layered in — node-level chaos alone
// never burns an attempt).
func zeroAttempts(rec *store.CampaignRecord) {
	for i := range rec.Results {
		rec.Results[i].Attempts = 0
	}
	for i := range rec.Failed {
		rec.Failed[i].Attempts = 0
	}
}

// nodeChaos is the node-failure schedule the determinism suite runs
// under: preemptions, flapping health, and stragglers all active.
func nodeChaos(seed int64) Chaos {
	return Chaos{Seed: seed, Preempt: 0.35, Flaky: 0.25, Slow: 0.3}
}

// TestFleetByteIdenticalToSerial is the tentpole invariant: a campaign
// sharded across a fault-ridden fleet — preempted shards re-queued,
// flapping nodes cordoned and remediated, stragglers pushing work to
// other nodes — produces a record byte-identical to a serial,
// fault-free, single-process campaign. Attempts are compared too: pure
// node-level chaos discards work before it runs, so no point ever
// burns a retry. Verified on all three backend kinds, at two shard
// sizes and two parallelism levels each.
func TestFleetByteIdenticalToSerial(t *testing.T) {
	for _, tc := range fleetBackends() {
		t.Run(tc.name, func(t *testing.T) {
			serial := campaign.DefaultSpec(31)
			serial.Workers = 1
			want := runRecord(t, openDev(t, tc.name), tc.w, serial)

			chaosSeen := Stats{}
			for _, shardSize := range []int{1, 3} {
				for _, parallelism := range []int{1, 4} {
					coord, err := planCoord(tc.name, fault.Plan{}, Options{
						Nodes:       3,
						ShardSize:   shardSize,
						CordonAfter: 1,
						CordonTicks: 2,
						Chaos:       nodeChaos(7),
					})
					if err != nil {
						t.Fatal(err)
					}
					spec := campaign.DefaultSpec(31)
					spec.Workers = parallelism
					spec.Executor = Executor{Coord: coord}
					got := runRecord(t, openDev(t, tc.name), tc.w, spec)
					if !bytes.Equal(got, want) {
						t.Errorf("shard=%d parallelism=%d: fleet record differs from serial fault-free record",
							shardSize, parallelism)
					}
					s := coord.Stats()
					chaosSeen.Preemptions += s.Preemptions
					chaosSeen.Cordons += s.Cordons
					chaosSeen.Remediations += s.Remediations
				}
			}
			if chaosSeen.Preemptions == 0 || chaosSeen.Cordons == 0 {
				t.Errorf("chaos schedule injected nothing across all runs (%+v) — the invariant is vacuous", chaosSeen)
			}
		})
	}
}

// TestFleetWithDeviceFaultsSurvivorsByteIdentical layers device-level
// faults (per-node derived schedules) under node-level chaos: with a
// retry budget, every point still survives and — attempts aside, which
// are provenance — the record matches the serial fault-free one. This
// is the PR 5 chaos invariant carried through the fleet path.
func TestFleetWithDeviceFaultsSurvivorsByteIdentical(t *testing.T) {
	plan := fault.Plan{Seed: 97, Transient: 0.2, Drop: 0.08}
	for _, tc := range fleetBackends() {
		t.Run(tc.name, func(t *testing.T) {
			serial := campaign.DefaultSpec(31)
			serial.Workers = 1
			want := runRecordStruct(t, openDev(t, tc.name), tc.w, serial)
			zeroAttempts(want)
			wantBytes := marshalRecord(t, want)

			coord, err := planCoord(tc.name, plan, Options{
				Nodes:       3,
				ShardSize:   2,
				CordonAfter: 1,
				CordonTicks: 2,
				Chaos:       nodeChaos(11),
			})
			if err != nil {
				t.Fatal(err)
			}
			spec := campaign.DefaultSpec(31)
			spec.Executor = Executor{Coord: coord}
			spec.Retry = fault.RetryPolicy{MaxAttempts: 10}
			spec.ContinueOnError = true
			got := runRecordStruct(t, openDev(t, tc.name), tc.w, spec)
			if len(got.Failed) != 0 {
				t.Fatalf("%d points failed despite the retry budget (first: %+v)", len(got.Failed), got.Failed[0])
			}
			zeroAttempts(got)
			if gotBytes := marshalRecord(t, got); !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("fleet survivors differ from the serial fault-free record\nwant: %s\ngot:  %s", wantBytes, gotBytes)
			}
		})
	}
}

// policyBackends pairs each backend kind with a bandwidth-bound
// workload for the policy determinism battery.
func policyBackends() []struct {
	name string
	w    device.Workload
} {
	return []struct {
		name string
		w    device.Workload
	}{
		{"p100", device.Workload{App: device.AppSpMV, N: 2048, Products: 1}},
		{"haswell", device.Workload{App: device.AppStencil, N: 64, Products: 1}},
		{"hetero", device.Workload{App: device.AppCompound, N: 256, Products: 2}},
	}
}

// openPolicy wraps a registry device under the battery's policy options.
func openPolicy(t testing.TB, name string) device.Device {
	t.Helper()
	d, err := policy.Wrap(openDev(t, name), policy.Options{Slack: 1.7, FloorFrac: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPolicyFleetByteIdenticalToSerial extends the headline invariant to
// policy campaigns: a policy × configuration sweep sharded across a
// chaos-ridden fleet — every node hosting its own policy wrapper — is
// byte-identical to a serial single-process policy campaign, on all
// three backend kinds with the bandwidth-bound workloads.
func TestPolicyFleetByteIdenticalToSerial(t *testing.T) {
	for _, tc := range policyBackends() {
		t.Run(tc.name, func(t *testing.T) {
			serial := campaign.DefaultSpec(31)
			serial.Workers = 1
			want := runRecord(t, openPolicy(t, tc.name), tc.w, serial)

			name := tc.name
			coord, err := New(Options{
				Nodes:       3,
				ShardSize:   2,
				CordonAfter: 1,
				CordonTicks: 2,
				Chaos:       nodeChaos(7),
			}, func(node string) (device.Device, error) {
				dev, err := device.Open(name)
				if err != nil {
					return nil, err
				}
				return policy.Wrap(dev, policy.Options{Slack: 1.7, FloorFrac: 0.35})
			})
			if err != nil {
				t.Fatal(err)
			}
			spec := campaign.DefaultSpec(31)
			spec.Workers = 4
			spec.Executor = Executor{Coord: coord}
			got := runRecord(t, openPolicy(t, tc.name), tc.w, spec)
			if !bytes.Equal(got, want) {
				t.Errorf("fleet policy record differs from the serial one\nwant: %s\ngot:  %s", want, got)
			}
		})
	}
}

// TestFleetParallelismInvariance pins reproducibility at any worker
// count: the record bytes AND the control-plane event digest are
// unchanged whether one goroutine or eight execute each round's shards.
func TestFleetParallelismInvariance(t *testing.T) {
	tc := fleetBackends()[0]
	var wantRec []byte
	var wantDigest string
	for _, parallelism := range []int{1, 2, 8} {
		coord, err := planCoord(tc.name, fault.Plan{}, Options{
			Nodes:       3,
			ShardSize:   2,
			CordonAfter: 1,
			Chaos:       nodeChaos(23),
		})
		if err != nil {
			t.Fatal(err)
		}
		spec := campaign.DefaultSpec(31)
		spec.Workers = parallelism
		spec.Executor = Executor{Coord: coord}
		rec := runRecord(t, openDev(t, tc.name), tc.w, spec)
		digest := DigestEvents(coord.Events())
		if wantRec == nil {
			wantRec, wantDigest = rec, digest
			continue
		}
		if !bytes.Equal(rec, wantRec) {
			t.Errorf("parallelism=%d changed the record bytes", parallelism)
		}
		if digest != wantDigest {
			t.Errorf("parallelism=%d changed the event digest: %s != %s", parallelism, digest, wantDigest)
		}
	}
}

// openDev opens a registry device or fails the test.
func openDev(t testing.TB, name string) device.Device {
	t.Helper()
	d, err := device.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
