package fleet

import (
	"bytes"
	"context"
	"testing"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
)

// streamFleetRecord runs a streamed campaign through the fleet
// executor into a RecordSink and returns the document bytes.
func streamFleetRecord(t testing.TB, dev device.Device, w device.Workload, spec campaign.Spec) []byte {
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
	return buf.Bytes()
}

// TestFleetStreamedRecordByteIdentical closes the acceptance matrix:
// a streamed-sink campaign sharded across a chaotic fleet produces a
// record byte-identical to the serial, local, materialized path — on
// all three backend kinds. Sink delivery rides job.Commit, so neither
// preemption re-queues nor cross-node completion order can reorder or
// duplicate what the sink sees.
func TestFleetStreamedRecordByteIdentical(t *testing.T) {
	for _, tc := range fleetBackends() {
		t.Run(tc.name, func(t *testing.T) {
			serial := campaign.DefaultSpec(31)
			serial.Workers = 1
			want := runRecord(t, openDev(t, tc.name), tc.w, serial)

			for _, parallelism := range []int{1, 4} {
				coord, err := planCoord(tc.name, fault.Plan{}, Options{
					Nodes:       3,
					ShardSize:   2,
					Parallelism: parallelism,
					CordonAfter: 1,
					CordonTicks: 2,
					Chaos:       nodeChaos(7),
				})
				if err != nil {
					t.Fatal(err)
				}
				spec := campaign.DefaultSpec(31)
				spec.Executor = Executor{Coord: coord}
				got := streamFleetRecord(t, openDev(t, tc.name), tc.w, spec)
				if !bytes.Equal(got, want) {
					t.Errorf("parallelism=%d: fleet-streamed record differs from serial materialized record\n got: %s\nwant: %s",
						parallelism, got, want)
				}
			}
		})
	}
}

// TestFleetEachCommitOrder drives fleet.Each directly under chaos and
// checks the commit contract: items 0..n-1 in strict order, once each.
func TestFleetEachCommitOrder(t *testing.T) {
	coord, err := planCoord("p100", fault.Plan{}, Options{
		Nodes:       4,
		ShardSize:   3,
		Parallelism: 4,
		CordonAfter: 1,
		CordonTicks: 2,
		Chaos:       nodeChaos(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var got []int
	err = Each(context.Background(), coord, n,
		func(ctx context.Context, dev device.Device, item int) (int, error) {
			return item * 2, nil
		},
		func(item, v int) error {
			if v != item*2 {
				t.Errorf("commit(%d) got %d", item, v)
			}
			got = append(got, item)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("committed %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("commit order broken at %d: %v", i, got[:i+1])
		}
	}
}

// TestFleetEachCommitErrorAborts: a commit error aborts the run and no
// later item is committed.
func TestFleetEachCommitErrorAborts(t *testing.T) {
	coord, err := planCoord("p100", fault.Plan{}, Options{Nodes: 3, ShardSize: 2, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	err = Each(context.Background(), coord, 30,
		func(ctx context.Context, dev device.Device, item int) (int, error) { return item, nil },
		func(item, v int) error {
			calls = append(calls, item)
			if item == 4 {
				return context.DeadlineExceeded // any error will do
			}
			return nil
		})
	if err == nil {
		t.Fatal("commit error did not abort the run")
	}
	for _, i := range calls {
		if i > 4 {
			t.Fatalf("commit called for %d after error at 4", i)
		}
	}
}
