package campaign

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/pareto"
	"energyprop/internal/parindex"
)

// streamRecordBytes runs a streamed campaign through a RecordSink and
// returns the serialized record.
func streamRecordBytes(t testing.TB, dev device.Device, w device.Workload, spec Spec) []byte {
	t.Helper()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rs, err := NewRecordSink(&buf, dev, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := Stream(context.Background(), dev, w, configs, spec, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamedRecordByteIdentical is the tentpole's acceptance
// invariant on the local executor: a streamed-sink campaign produces a
// store record byte-identical to the materialized RunConfigs result
// mapped by referenceRecord and encoded as indented JSON, on all three backend kinds, at
// serial and parallel worker counts. (internal/fleet carries the same
// invariant for the fleet executor.)
func TestStreamedRecordByteIdentical(t *testing.T) {
	for _, tc := range chaosBackends() {
		t.Run(tc.name, func(t *testing.T) {
			dev := openDev(t, tc.name)
			spec := DefaultSpec(31)
			spec.Workers = 1
			res, err := runAll(dev, tc.w, spec)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalRecord(t, referenceRecord(t, res))
			for _, workers := range []int{1, 8} {
				sspec := DefaultSpec(31)
				sspec.Workers = workers
				got := streamRecordBytes(t, openDev(t, tc.name), tc.w, sspec)
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: streamed record differs from materialized\n got: %s\nwant: %s", workers, got, want)
				}
			}
		})
	}
}

// TestStreamedRecordWithFailuresByteIdentical covers the degraded
// shape: with fault injection and no retry budget, some points fail,
// and the streamed record (results + failed sections) must still match
// the materialized path byte-for-byte under the same fault schedule.
func TestStreamedRecordWithFailuresByteIdentical(t *testing.T) {
	plan := fault.Plan{Seed: 97, Transient: 0.25, Drop: 0.1}
	for _, tc := range chaosBackends() {
		t.Run(tc.name, func(t *testing.T) {
			spec := chaosSpec(31, 1, nil)
			spec.Retry = fault.RetryPolicy{} // no retries: failures stick

			mdev, err := fault.Wrap(openDev(t, tc.name), plan)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runAll(mdev, tc.w, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Failed) == 0 {
				t.Fatalf("no failures injected — the degraded comparison is vacuous")
			}
			want := marshalRecord(t, referenceRecord(t, res))

			sdev, err := fault.Wrap(openDev(t, tc.name), plan)
			if err != nil {
				t.Fatal(err)
			}
			got := streamRecordBytes(t, sdev, tc.w, spec)
			if !bytes.Equal(got, want) {
				t.Errorf("degraded streamed record differs\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestIndexSinkMatchesBatchFront: the front a campaign builds
// incrementally through an IndexSink equals batch pareto.Front over the
// materialized record's points.
func TestIndexSinkMatchesBatchFront(t *testing.T) {
	for _, tc := range chaosBackends() {
		t.Run(tc.name, func(t *testing.T) {
			dev := openDev(t, tc.name)
			configs, err := dev.Configs(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			spec := DefaultSpec(31)
			spec.Workers = 4

			x := parindex.NewIndex()
			is := NewIndexSink(x, dev.Name(), tc.w)
			rs := NewResultSink(dev, tc.w)
			if err := Stream(context.Background(), dev, tc.w, configs, spec, MultiSink{rs, is}); err != nil {
				t.Fatal(err)
			}

			wantFront := pareto.Front(referenceRecord(t, rs.Result()).Points())
			gotEntries := x.Entries(is.Key)
			if len(gotEntries) != len(wantFront) {
				t.Fatalf("front size %d != batch %d", len(gotEntries), len(wantFront))
			}
			for i, e := range gotEntries {
				w := wantFront[i]
				if e.Label != w.Label || e.Time != w.Time || e.Energy != w.Energy {
					t.Errorf("front[%d]: %+v != %+v", i, e, w)
				}
			}
		})
	}
}

// TestCountingSink checks the observability counters and first-failure
// capture on a degraded campaign.
func TestCountingSink(t *testing.T) {
	plan := fault.Plan{Seed: 97, Transient: 0.25, Drop: 0.1}
	dev, err := fault.Wrap(openDev(t, "haswell"), plan)
	if err != nil {
		t.Fatal(err)
	}
	w := device.Workload{N: 48, Products: 1}
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	spec := chaosSpec(31, 4, nil)
	spec.Retry = fault.RetryPolicy{}

	cs := &CountingSink{}
	rs := NewResultSink(dev, w)
	if err := Stream(context.Background(), dev, w, configs, spec, MultiSink{rs, cs}); err != nil {
		t.Fatal(err)
	}
	res := rs.Result()
	if cs.Accepted() != len(res.Points) || cs.Failed() != len(res.Failed) || cs.TotalRuns() != res.TotalRuns {
		t.Errorf("counters (%d, %d, %d) != result (%d, %d, %d)",
			cs.Accepted(), cs.Failed(), cs.TotalRuns(), len(res.Points), len(res.Failed), res.TotalRuns)
	}
	if !cs.Flushed() {
		t.Error("completed campaign did not flush")
	}
	if cs.Failed() > 0 && cs.FirstFailure() == nil {
		t.Error("failures counted but no first failure captured")
	}
}

// deliveryOrderSink records the configs Accept sees, to assert order.
type deliveryOrderSink struct {
	keys    []string
	flushes int
}

func (s *deliveryOrderSink) Accept(o PointOutcome) error {
	c := o.Report.Config
	if o.Failure != nil {
		c = o.Failure.Config
	}
	s.keys = append(s.keys, c.Key())
	return nil
}

func (s *deliveryOrderSink) Flush() error { s.flushes++; return nil }

// deliveryCases are the fan-outs the delivery contract must hold
// under: the serial pool, a parallel pool, and sixteen workers whose
// completions are scrambled on purpose.
func deliveryCases() []struct {
	name string
	spec func(Spec) Spec
} {
	return []struct {
		name string
		spec func(Spec) Spec
	}{
		{"workers=1", func(s Spec) Spec { s.Workers = 1; return s }},
		{"workers=7", func(s Spec) Spec { s.Workers = 7; return s }},
		{"scrambled", func(s Spec) Spec { s.Executor = scrambledExecutor; return s }},
	}
}

// TestSinkDeliveryOrder: Accept sees configurations in list order, each
// once, whatever order the workers finish in, and Flush runs exactly
// once after the last Accept.
func TestSinkDeliveryOrder(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(configs))
	for i, c := range configs {
		want[i] = c.Key()
	}
	for _, tc := range deliveryCases() {
		s := &deliveryOrderSink{}
		if err := Stream(context.Background(), dev, w, configs, tc.spec(DefaultSpec(31)), s); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.keys, want) {
			t.Errorf("%s: delivery order %v != config order %v", tc.name, s.keys, want)
		}
		if s.flushes != 1 {
			t.Errorf("%s: %d flushes", tc.name, s.flushes)
		}
	}
}

// abortingSink fails Accept after a few points.
type abortingSink struct {
	n       int
	flushes int
}

var errSinkBoom = errors.New("sink rejected point")

func (s *abortingSink) Accept(o PointOutcome) error {
	s.n++
	if s.n > 3 {
		return errSinkBoom
	}
	return nil
}

func (s *abortingSink) Flush() error { s.flushes++; return nil }

// TestSinkErrorAbortsCampaign: an Accept error aborts the stream under
// every fan-out and is Stream's error; the sink is offered nothing after
// the outcome it rejected, and Flush is never called on it.
func TestSinkErrorAbortsCampaign(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range deliveryCases() {
		s := &abortingSink{}
		err := Stream(context.Background(), dev, w, configs, tc.spec(DefaultSpec(31)), s)
		if !errors.Is(err, errSinkBoom) {
			t.Fatalf("%s: err = %v, want sink error", tc.name, err)
		}
		if s.n != 4 {
			t.Errorf("%s: sink offered %d outcomes, want 4 (none after the rejected one)", tc.name, s.n)
		}
		if s.flushes != 0 {
			t.Errorf("%s: aborted campaign flushed %d times", tc.name, s.flushes)
		}
	}
}

// TestStreamNilSink guards the API boundary.
func TestStreamNilSink(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := Stream(context.Background(), dev, w, configs, DefaultSpec(1), nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// TestDiscardSink: the warm-rep sink accepts and flushes without
// effect.
func TestDiscardSink(t *testing.T) {
	if err := Discard.Accept(PointOutcome{}); err != nil {
		t.Fatal(err)
	}
	if err := Discard.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TotalRuns returns the summed statistical repetitions — the
// campaign's cost.
func (s *CountingSink) TotalRuns() int { return int(s.runs.Load()) }

// Flushed reports whether the stream completed.
func (s *CountingSink) Flushed() bool { return s.flushes.Load() > 0 }
