package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
)

// Regenerate the committed event digests after an intentional scheduler
// change with:
//
//	go test ./internal/fleet/ -run TestFleetRegressionSeeds -update
var updateCorpus = flag.Bool("update", false, "rewrite testdata/fleet_seeds.json with freshly computed event digests")

// fleetSeedCase is one committed chaos schedule in the fleet regression
// corpus. EventsDigest pins the exact cordon/remediate/preempt
// interleaving the schedule produced when it was committed: any drift
// in the simulator — a reordered dispatch, one extra health flap —
// changes the digest and fails tier-1. Parallelism is the replaying
// campaign's Spec.Workers, which bounds how many of a round's shards
// execute at once.
type fleetSeedCase struct {
	Name        string `json:"name"`
	Device      string `json:"device"`
	N           int    `json:"n"`
	Products    int    `json:"products"`
	Seed        int64  `json:"seed"`
	Nodes       int    `json:"nodes"`
	ShardSize   int    `json:"shard_size"`
	Parallelism int    `json:"parallelism"`
	CordonAfter int    `json:"cordon_after,omitempty"`
	Chaos       string `json:"chaos"`
	// DeviceFaults layers a per-node-derived fault.Plan under the node
	// chaos; Retries is the campaign retry budget that must absorb it.
	DeviceFaults string `json:"device_faults,omitempty"`
	Retries      int    `json:"retries,omitempty"`
	// Expected control-plane activity: a corpus case that stops
	// exercising its failure mode is vacuous and must be retuned.
	ExpectPreemptions  bool `json:"expect_preemptions,omitempty"`
	ExpectCordons      bool `json:"expect_cordons,omitempty"`
	ExpectRemediations bool `json:"expect_remediations,omitempty"`
	// EventsDigest is the committed DigestEvents fingerprint.
	EventsDigest string `json:"events_digest"`
}

const fleetCorpusPath = "testdata/fleet_seeds.json"

// TestFleetRegressionSeeds replays the committed corpus of fleet chaos
// schedules: each must (a) still produce a record byte-identical to the
// serial fault-free campaign, (b) still exercise the control-plane
// activity it was committed to probe, and (c) replay the exact event
// interleaving pinned by its digest.
func TestFleetRegressionSeeds(t *testing.T) {
	raw, err := os.ReadFile(fleetCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []fleetSeedCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("corrupt fleet corpus: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("empty fleet corpus")
	}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.Name, func(t *testing.T) {
			chaos, err := ParseChaos(tc.Chaos)
			if err != nil {
				t.Fatalf("corpus case %q has a bad chaos schedule: %v", tc.Name, err)
			}
			var plan fault.Plan
			if tc.DeviceFaults != "" {
				if plan, err = fault.ParsePlan(tc.DeviceFaults); err != nil {
					t.Fatalf("corpus case %q has a bad device plan: %v", tc.Name, err)
				}
			}
			w := device.Workload{N: tc.N, Products: tc.Products}.Normalized()

			serial := campaign.DefaultSpec(tc.Seed)
			serial.Workers = 1
			want := runRecordStruct(t, openDev(t, tc.Device), w, serial)

			coord, err := planCoord(tc.Device, plan, Options{
				Nodes:       tc.Nodes,
				ShardSize:   tc.ShardSize,
				CordonAfter: tc.CordonAfter,
				CordonTicks: 2,
				Chaos:       chaos,
			})
			if err != nil {
				t.Fatal(err)
			}
			spec := campaign.DefaultSpec(tc.Seed)
			spec.Workers = tc.Parallelism
			spec.Executor = Executor{Coord: coord}
			if tc.Retries > 0 {
				spec.Retry = fault.RetryPolicy{MaxAttempts: tc.Retries}
				spec.ContinueOnError = true
			}
			got := runRecordStruct(t, openDev(t, tc.Device), w, spec)
			if len(got.Failed) != 0 {
				t.Fatalf("%d points failed despite the corpus budget (first: %+v)", len(got.Failed), got.Failed[0])
			}
			if tc.DeviceFaults != "" {
				zeroAttempts(want)
				zeroAttempts(got)
			}
			if !bytes.Equal(marshalRecord(t, got), marshalRecord(t, want)) {
				t.Error("fleet record differs from the serial fault-free record")
			}

			s := coord.Stats()
			if tc.ExpectPreemptions && s.Preemptions == 0 {
				t.Errorf("schedule no longer preempts: %+v", s)
			}
			if tc.ExpectCordons && s.Cordons == 0 {
				t.Errorf("schedule no longer cordons: %+v", s)
			}
			if tc.ExpectRemediations && s.Remediations == 0 {
				t.Errorf("schedule no longer remediates: %+v", s)
			}

			digest := DigestEvents(coord.Events())
			if *updateCorpus {
				tc.EventsDigest = digest
				return
			}
			if digest != tc.EventsDigest {
				t.Errorf("event interleaving drifted: digest %s, corpus pins %s (stats %+v)\nif the scheduler change is intentional, regenerate with -update",
					digest, tc.EventsDigest, s)
			}
		})
	}
	if *updateCorpus {
		out, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fleetCorpusPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
