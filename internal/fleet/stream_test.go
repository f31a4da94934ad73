package fleet

import (
	"bytes"
	"context"
	"errors"
	"reflect"
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
				got := streamFleetRecord(t, openDev(t, tc.name), tc.w, spec)
				if !bytes.Equal(got, want) {
					t.Errorf("parallelism=%d: fleet-streamed record differs from serial materialized record\n got: %s\nwant: %s",
						parallelism, got, want)
				}
			}
		})
	}
}

// keySink records the configuration keys it is handed and rejects the
// outcome at index failAt (never, when failAt < 0).
type keySink struct {
	keys    []string
	failAt  int
	flushes int
}

var errKeySink = errors.New("sink rejected point")

func (s *keySink) Accept(o campaign.PointOutcome) error {
	if len(s.keys) == s.failAt {
		return errKeySink
	}
	s.keys = append(s.keys, o.Key)
	return nil
}

func (s *keySink) Flush() error { s.flushes++; return nil }

// streamChaotic streams a p100 campaign through a preempting fleet
// whose rounds run four shards at once into sink, and returns the
// configuration keys in order, Stream's error and the fleet's stats.
func streamChaotic(t *testing.T, sink campaign.Sink) ([]string, Stats, error) {
	t.Helper()
	coord, err := planCoord("p100", fault.Plan{}, Options{
		Nodes:       4,
		ShardSize:   3,
		CordonAfter: 1,
		CordonTicks: 2,
		Chaos:       nodeChaos(11),
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, w := openDev(t, "p100"), fleetBackends()[0].w
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(configs))
	for i, c := range configs {
		keys[i] = c.Key()
	}
	spec := campaign.DefaultSpec(31)
	spec.Workers = 4
	spec.Executor = Executor{Coord: coord}
	err = campaign.Stream(context.Background(), dev, w, configs, spec, sink)
	return keys, coord.Stats(), err
}

// TestFleetEachCommitOrder: on a preempting fleet whose shards finish
// out of order, the sink sees every configuration once, in order.
func TestFleetEachCommitOrder(t *testing.T) {
	s := &keySink{failAt: -1}
	want, st, err := streamChaotic(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Preemptions == 0 {
		t.Error("chaos schedule injected no preemptions — the test is vacuous")
	}
	if !reflect.DeepEqual(s.keys, want) || s.flushes != 1 {
		t.Errorf("delivered %v (%d flushes), want %v once", s.keys, s.flushes, want)
	}
}

// TestFleetEachCommitErrorAborts: on the same fleet, a sink error is
// Stream's error, nothing is delivered after it, and the sink is never
// flushed.
func TestFleetEachCommitErrorAborts(t *testing.T) {
	s := &keySink{failAt: 4}
	want, _, err := streamChaotic(t, s)
	if !errors.Is(err, errKeySink) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if !reflect.DeepEqual(s.keys, want[:4]) || s.flushes != 0 {
		t.Errorf("delivered %v (%d flushes), want %v and no flush", s.keys, s.flushes, want[:4])
	}
}
