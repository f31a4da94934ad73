package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"energyprop/internal/device"
)

// CampaignWriter emits a CampaignRecord incrementally, point by point,
// without ever materializing the []MeasuredPoint slice — the streaming
// back end of the campaign sink pipeline. The bytes produced are
// identical to a json.Encoder.Encode of the assembled record — with
// two-space indentation by default, plain in Compact mode — so
// consumers cannot tell a streamed record from a materialized one.
//
// Usage: NewCampaignWriter validates the header identity up front,
// WritePoint appends measured points in campaign order, WriteFailed
// records given-up points (buffered — the schema puts "failed" after
// "results" — but failures are bounded by the configuration count, not
// the sample count, so this never materializes measurement data), and
// Close finishes the document. Each entry passes the checks
// CampaignRecord.Validate applies on load: bad points are rejected at
// write time, and Close fails on an empty campaign. Any error is sticky:
// after a failed write the writer refuses further output, so a
// half-written document cannot be mistaken for a record.
type CampaignWriter struct {
	w       io.Writer
	compact bool

	device   string
	kind     string
	workload device.Workload

	started bool   // header emitted (lazily, on the first point)
	results int    // measured points written so far
	scratch []byte // one point's encoding, reused across WritePoint
	seen    map[string]bool
	failed  []FailedPoint
	err     error // sticky
	closed  bool
}

// NewCampaignWriter validates the record identity and prepares a
// streaming writer targeting w. Nothing is written until the first
// point arrives.
func NewCampaignWriter(w io.Writer, deviceName, kind string, workload device.Workload) (*CampaignWriter, error) {
	if w == nil {
		return nil, errors.New("store: nil writer")
	}
	if deviceName == "" {
		return nil, errors.New("store: empty device name")
	}
	if kind == "" {
		return nil, errors.New("store: empty device kind")
	}
	if err := workload.Validate(); err != nil {
		return nil, fmt.Errorf("store: bad workload: %w", err)
	}
	return &CampaignWriter{
		w:        w,
		device:   deviceName,
		kind:     kind,
		workload: workload,
		seen:     map[string]bool{},
	}, nil
}

// Compact switches the writer to compact JSON (the wire format
// internal/service's /sweep endpoint uses); the default is indented
// JSON, the record file format. Must be called before the first write.
func (cw *CampaignWriter) Compact() *CampaignWriter {
	cw.compact = true
	return cw
}

// writeHeader emits everything up to and including `"results": `.
func (cw *CampaignWriter) writeHeader() error {
	if cw.started {
		return nil
	}
	cw.started = true
	var buf bytes.Buffer
	if cw.compact {
		buf.WriteString(`{"version":`)
		fmt.Fprintf(&buf, "%d", FormatVersion)
		buf.WriteString(`,"device":`)
		if err := cw.appendJSON(&buf, cw.device, ""); err != nil {
			return err
		}
		buf.WriteString(`,"kind":`)
		if err := cw.appendJSON(&buf, cw.kind, ""); err != nil {
			return err
		}
		buf.WriteString(`,"workload":`)
		if err := cw.appendJSON(&buf, cw.workload, ""); err != nil {
			return err
		}
		buf.WriteString(`,"results":`)
	} else {
		fmt.Fprintf(&buf, "{\n  \"version\": %d,\n  \"device\": ", FormatVersion)
		if err := cw.appendJSON(&buf, cw.device, "  "); err != nil {
			return err
		}
		buf.WriteString(",\n  \"kind\": ")
		if err := cw.appendJSON(&buf, cw.kind, "  "); err != nil {
			return err
		}
		buf.WriteString(",\n  \"workload\": ")
		if err := cw.appendJSON(&buf, cw.workload, "  "); err != nil {
			return err
		}
		buf.WriteString(",\n  \"results\": ")
	}
	return cw.flush(buf.Bytes())
}

// appendJSON marshals v and appends it to buf, re-indented for nesting
// prefix (indented mode) or compact (prefix == "" in compact mode).
// Marshal-then-Indent reproduces json.Encoder's formatting exactly:
// the encoder HTML-escapes by default, as Marshal does.
func (cw *CampaignWriter) appendJSON(buf *bytes.Buffer, v any, prefix string) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding: %w", err)
	}
	if cw.compact {
		buf.Write(data)
		return nil
	}
	return json.Indent(buf, data, prefix, "  ")
}

// flush writes buffered bytes through to the destination, latching any
// error.
func (cw *CampaignWriter) flush(data []byte) error {
	if _, err := cw.w.Write(data); err != nil {
		cw.err = fmt.Errorf("store: writing campaign: %w", err)
		return cw.err
	}
	return nil
}

// WritePoint appends one measured point to the record's results array.
// The point is encoded by appendPoint into reused scratch, or by
// encoding/json when appendPoint declines it; the bytes are the same.
func (cw *CampaignWriter) WritePoint(p MeasuredPoint) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return errors.New("store: write after Close")
	}
	if err := checkResult(cw.results, p, cw.seen); err != nil {
		cw.err = err
		return err
	}
	if err := cw.writeHeader(); err != nil {
		return err
	}
	b := cw.scratch[:0]
	switch {
	case cw.compact && cw.results == 0:
		b = append(b, '[')
	case cw.compact:
		b = append(b, ',')
	case cw.results == 0:
		b = append(b, "[\n    "...)
	default:
		b = append(b, ",\n    "...)
	}
	b, ok := appendPoint(b, p, cw.compact)
	if !ok {
		buf := bytes.NewBuffer(b)
		if err := cw.appendJSON(buf, p, "    "); err != nil {
			cw.err = err
			return err
		}
		b = buf.Bytes()
	}
	cw.scratch = b
	cw.results++
	return cw.flush(b)
}

// WriteFailed records one given-up point. Failures are buffered until
// Close because the schema places the "failed" array after "results";
// the buffer is bounded by the configuration count.
func (cw *CampaignWriter) WriteFailed(f FailedPoint) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return errors.New("store: write after Close")
	}
	if err := checkFailed(len(cw.failed), f, cw.seen); err != nil {
		cw.err = err
		return err
	}
	cw.failed = append(cw.failed, f)
	return nil
}

// Close completes the document: closes the results array (emitting
// "null" when no point was written, matching how a nil Results slice
// marshals), appends the buffered failed array, and terminates with the
// encoder's trailing newline. A campaign with neither results nor
// failures is an error, mirroring Validate's "no results".
func (cw *CampaignWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return nil
	}
	if cw.results == 0 && len(cw.failed) == 0 {
		cw.err = errors.New("store: no results")
		return cw.err
	}
	cw.closed = true
	if err := cw.writeHeader(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if cw.compact {
		if cw.results == 0 {
			buf.WriteString("null")
		} else {
			buf.WriteByte(']')
		}
		if len(cw.failed) > 0 {
			buf.WriteString(`,"failed":[`)
			for i, f := range cw.failed {
				if i > 0 {
					buf.WriteByte(',')
				}
				if err := cw.appendJSON(&buf, f, ""); err != nil {
					cw.err = err
					return err
				}
			}
			buf.WriteByte(']')
		}
		buf.WriteString("}\n")
	} else {
		if cw.results == 0 {
			buf.WriteString("null")
		} else {
			buf.WriteString("\n  ]")
		}
		if len(cw.failed) > 0 {
			buf.WriteString(",\n  \"failed\": [\n    ")
			for i, f := range cw.failed {
				if i > 0 {
					buf.WriteString(",\n    ")
				}
				if err := cw.appendJSON(&buf, f, "    "); err != nil {
					cw.err = err
					return err
				}
			}
			buf.WriteString("\n  ]")
		}
		buf.WriteString("\n}\n")
	}
	return cw.flush(buf.Bytes())
}

// Err returns the writer's sticky error, if any.
func (cw *CampaignWriter) Err() error { return cw.err }
