package campaign

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"energyprop/internal/device"
	"energyprop/internal/parindex"
	"energyprop/internal/store"
)

// Sink consumes a campaign's point outcomes as they are delivered —
// the streaming replacement for "materialize []PointOutcome,
// post-process later". The engine guarantees Accept is called in
// configuration order (index 0, 1, 2, ...), exactly once per
// configuration, never concurrently (Job.Commit re-serializes whatever
// order the executor finishes points in), and that Flush is called exactly
// once, after every Accept, only when the campaign completed — an
// aborted campaign never flushes, so a sink can treat Flush as its
// commit point. An Accept or Flush error aborts the campaign.
//
// Because delivery order equals configuration order regardless of
// executor or worker count, everything downstream of a sink (records,
// Pareto indexes, counters) is byte-identical across executors, just as
// materialized results were.
type Sink interface {
	// Accept consumes one configuration's terminal outcome.
	Accept(o PointOutcome) error
	// Flush completes the stream after the final Accept.
	Flush() error
}

// MultiSink fans one outcome stream out to several sinks in order.
// Accept and Flush stop at the first error.
type MultiSink []Sink

// Accept implements Sink.
func (m MultiSink) Accept(o PointOutcome) error {
	for _, s := range m {
		if err := s.Accept(o); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Sink.
func (m MultiSink) Flush() error {
	for _, s := range m {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ResultSink materializes the stream back into a Result — the
// compatibility bridge RunConfigs uses so batch callers keep their
// []PointReport API on top of the streaming engine.
type ResultSink struct {
	res Result
}

// NewResultSink builds a materializing sink for a campaign on the
// given device and (normalized) workload.
func NewResultSink(dev device.Device, w device.Workload) *ResultSink {
	return &ResultSink{res: Result{
		Device:   dev.Spec().CatalogName,
		Kind:     dev.Kind(),
		Workload: w.Normalized(),
	}}
}

// Accept implements Sink.
func (s *ResultSink) Accept(o PointOutcome) error {
	if o.Failure != nil {
		s.res.Failed = append(s.res.Failed, *o.Failure)
		return nil
	}
	s.res.Points = append(s.res.Points, o.Report)
	s.res.TotalRuns += o.Report.Runs
	return nil
}

// Flush implements Sink.
func (s *ResultSink) Flush() error { return nil }

// Result returns the materialized campaign result.
func (s *ResultSink) Result() *Result { return &s.res }

// RecordSink streams outcomes into a store.CampaignWriter, producing a
// campaign record without materializing the point slice: the outcome's
// key and label, measured energy with model-true time for successes,
// the final error text (or "unknown error") for failures. Flush closes
// the writer, which finishes the JSON document.
type RecordSink struct {
	W *store.CampaignWriter
}

// NewRecordSink builds a streaming record sink writing to dst for a
// campaign on dev. The workload is normalized before it enters the
// record header, matching what the engine reports for materialized
// results. compact selects the service wire format over the indented
// file format.
func NewRecordSink(dst io.Writer, dev device.Device, w device.Workload, compact bool) (*RecordSink, error) {
	cw, err := store.NewCampaignWriter(dst, dev.Spec().CatalogName, dev.Kind(), w.Normalized())
	if err != nil {
		return nil, err
	}
	if compact {
		cw.Compact()
	}
	return &RecordSink{W: cw}, nil
}

// Accept implements Sink.
func (s *RecordSink) Accept(o PointOutcome) error {
	if o.Failure != nil {
		f := o.Failure
		msg := "unknown error"
		if f.Err != nil {
			msg = f.Err.Error()
		}
		return s.W.WriteFailed(store.FailedPoint{
			Config:   o.Key,
			Label:    o.Label,
			Attempts: f.Attempts,
			Error:    msg,
		})
	}
	p := o.Report
	return s.W.WritePoint(store.MeasuredPoint{
		Config:     o.Key,
		Label:      o.Label,
		Seconds:    p.TrueSeconds,
		DynPowerW:  p.MeasuredEnergyJ / p.TrueSeconds,
		DynEnergyJ: p.MeasuredEnergyJ,
		Attempts:   p.Attempts,
	})
}

// Flush implements Sink.
func (s *RecordSink) Flush() error { return s.W.Close() }

// IndexSink feeds measured points into an incremental Pareto-front
// index under a fixed (device, workload) key. Failures pass through
// untouched — only measured coordinates enter the front. Because the
// engine delivers points in configuration order, the index's
// duplicate collapse (first encountered wins) matches batch
// pareto.Front over the same campaign.
type IndexSink struct {
	Index *parindex.Index
	Key   parindex.Key
}

// NewIndexSink builds an index sink for a campaign on the device
// registry name and (normalized) workload.
func NewIndexSink(x *parindex.Index, deviceName string, w device.Workload) *IndexSink {
	w = w.Normalized()
	return &IndexSink{Index: x, Key: parindex.Key{
		Device:   deviceName,
		App:      w.App,
		N:        w.N,
		Products: w.Products,
	}}
}

// Accept implements Sink.
func (s *IndexSink) Accept(o PointOutcome) error {
	if o.Failure != nil {
		return nil
	}
	p := o.Report
	s.Index.Insert(s.Key, parindex.Entry{
		Config: o.Key,
		Label:  o.Label,
		Time:   p.TrueSeconds,
		Energy: p.MeasuredEnergyJ,
	})
	return nil
}

// Flush implements Sink.
func (s *IndexSink) Flush() error { return nil }

// CountingSink tallies the stream for the observability plane: accepted
// points, failures, total statistical runs, and whether the stream
// flushed. Counters are atomic so concurrent readers (a metrics
// endpoint polling mid-campaign) see consistent monotone values; the
// engine itself never calls Accept concurrently.
type CountingSink struct {
	accepted atomic.Uint64
	failed   atomic.Uint64
	runs     atomic.Uint64
	flushes  atomic.Uint64

	mu       sync.Mutex
	firstErr error // first failure's error, for degraded-status bodies
}

// Accept implements Sink.
func (s *CountingSink) Accept(o PointOutcome) error {
	if o.Failure != nil {
		s.failed.Add(1)
		s.mu.Lock()
		if s.firstErr == nil && o.Failure.Err != nil {
			s.firstErr = o.Failure.Err
		}
		s.mu.Unlock()
		return nil
	}
	s.accepted.Add(1)
	s.runs.Add(uint64(o.Report.Runs))
	return nil
}

// Flush implements Sink.
func (s *CountingSink) Flush() error {
	s.flushes.Add(1)
	return nil
}

// Accepted returns the number of measured points seen.
func (s *CountingSink) Accepted() int { return int(s.accepted.Load()) }

// Failed returns the number of failure outcomes seen.
func (s *CountingSink) Failed() int { return int(s.failed.Load()) }

// FirstFailure returns the first failure outcome's error, if any.
func (s *CountingSink) FirstFailure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// FuncSink adapts a pair of closures to Sink; either may be nil.
type FuncSink struct {
	AcceptFunc func(o PointOutcome) error
	FlushFunc  func() error
}

// Accept implements Sink.
func (s FuncSink) Accept(o PointOutcome) error {
	if s.AcceptFunc == nil {
		return nil
	}
	return s.AcceptFunc(o)
}

// Flush implements Sink.
func (s FuncSink) Flush() error {
	if s.FlushFunc == nil {
		return nil
	}
	return s.FlushFunc()
}

// Discard is a Sink that drops the stream — the warm-repetition path
// of the CLIs, which re-runs campaigns for cache statistics without
// wanting the outcomes twice.
var Discard Sink = FuncSink{}

// errNilSink guards Stream's contract at the API boundary.
var errNilSink = errors.New("campaign: nil sink")
