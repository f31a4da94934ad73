package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"energyprop/internal/device"
)

// identityCases enumerate record shapes the streamed writer must
// reproduce byte-for-byte: nil results (failures only), no failures,
// both, single element arrays, HTML-escapable strings, omitted
// optional fields.
func identityCases() []*CampaignRecord {
	w := device.Workload{App: "dgemm", N: 10240, Products: 8}
	wNoApp := device.Workload{N: 96, Products: 1}
	return []*CampaignRecord{
		{
			Version: FormatVersion, Device: "Tesla P100", Kind: "gpu", Workload: w,
			Results: []MeasuredPoint{
				{Config: "bs=24/g=1/r=8", Label: "(BS=24, G=1, R=8)", Seconds: 1.5, DynPowerW: 10, DynEnergyJ: 15},
			},
		},
		{
			Version: FormatVersion, Device: "Intel Haswell E5-2670 v3", Kind: "cpu", Workload: wNoApp,
			Results: []MeasuredPoint{
				{Config: "contiguous/p=2/t=12", Label: "<p&t>", Seconds: 0.25, DynPowerW: 80, DynEnergyJ: 20, Attempts: 3},
				{Config: "contiguous/p=1/t=24", Seconds: 0.5, DynPowerW: 40, DynEnergyJ: 20},
			},
			Failed: []FailedPoint{
				{Config: "contiguous/p=4/t=6", Label: "(P=4, T=6)", Attempts: 2, Error: "node lost: <transient>"},
				{Config: "contiguous/p=8/t=3", Error: "unknown error"},
			},
		},
		{
			Version: FormatVersion, Device: "hetero", Kind: "hetero", Workload: w,
			Failed: []FailedPoint{
				{Config: "mix/a=1", Attempts: 1, Error: "boom"},
			},
		},
	}
}

func streamRecord(t *testing.T, rec *CampaignRecord, compact bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewCampaignWriter(&buf, rec.Device, rec.Kind, rec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if compact {
		cw.Compact()
	}
	for _, p := range rec.Results {
		if err := cw.WritePoint(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range rec.Failed {
		if err := cw.WriteFailed(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignWriterMatchesSaveCampaign: indented streamed output is
// byte-identical to the materialized saveCampaign oracle.
func TestCampaignWriterMatchesSaveCampaign(t *testing.T) {
	for i, rec := range identityCases() {
		var want bytes.Buffer
		if err := saveCampaign(&want, rec); err != nil {
			t.Fatal(err)
		}
		got := streamRecord(t, rec, false)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("case %d: streamed output diverged\n got: %q\nwant: %q", i, got, want.Bytes())
		}
	}
}

// TestCampaignWriterCompactMatchesEncoder: compact streamed output is
// byte-identical to json.Encoder.Encode of the assembled record — the
// wire format the /sweep endpoint serves.
func TestCampaignWriterCompactMatchesEncoder(t *testing.T) {
	for i, rec := range identityCases() {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatal(err)
		}
		got := streamRecord(t, rec, true)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("case %d: compact streamed output diverged\n got: %q\nwant: %q", i, got, want.Bytes())
		}
	}
}

// TestCampaignWriterRoundTrip: streamed documents load and validate.
func TestCampaignWriterRoundTrip(t *testing.T) {
	for i, rec := range identityCases() {
		data := streamRecord(t, rec, false)
		loaded, err := LoadCampaign(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if loaded.Device != rec.Device || len(loaded.Results) != len(rec.Results) || len(loaded.Failed) != len(rec.Failed) {
			t.Fatalf("case %d: round trip mismatch", i)
		}
	}
}

func TestCampaignWriterHeaderValidation(t *testing.T) {
	w := device.Workload{App: "dgemm", N: 64, Products: 1}
	var buf bytes.Buffer
	if _, err := NewCampaignWriter(nil, "d", "gpu", w); err == nil {
		t.Error("nil writer accepted")
	}
	if _, err := NewCampaignWriter(&buf, "", "gpu", w); err == nil {
		t.Error("empty device accepted")
	}
	if _, err := NewCampaignWriter(&buf, "d", "", w); err == nil {
		t.Error("empty kind accepted")
	}
	if _, err := NewCampaignWriter(&buf, "d", "gpu", device.Workload{N: -1}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestCampaignWriterPointValidation(t *testing.T) {
	w := device.Workload{App: "dgemm", N: 64, Products: 1}
	newW := func() (*CampaignWriter, *bytes.Buffer) {
		var buf bytes.Buffer
		cw, err := NewCampaignWriter(&buf, "d", "gpu", w)
		if err != nil {
			t.Fatal(err)
		}
		return cw, &buf
	}
	good := MeasuredPoint{Config: "a", Seconds: 1, DynEnergyJ: 1}

	cw, _ := newW()
	if err := cw.WritePoint(MeasuredPoint{Seconds: 1, DynEnergyJ: 1}); err == nil || !strings.Contains(err.Error(), "empty config") {
		t.Errorf("empty config: %v", err)
	}
	// Sticky: the writer refuses everything after an error.
	if err := cw.WritePoint(good); err == nil || !strings.Contains(err.Error(), "empty config") {
		t.Errorf("sticky error not preserved: %v", err)
	}

	cw, _ = newW()
	if err := cw.WritePoint(good); err != nil {
		t.Fatal(err)
	}
	if err := cw.WritePoint(good); err == nil || !strings.Contains(err.Error(), "duplicate config") {
		t.Errorf("duplicate across results: %v", err)
	}

	cw, _ = newW()
	if err := cw.WritePoint(good); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteFailed(FailedPoint{Config: "a", Error: "x"}); err == nil || !strings.Contains(err.Error(), "duplicate config") {
		t.Errorf("duplicate across results/failed: %v", err)
	}

	cw, _ = newW()
	if err := cw.WritePoint(MeasuredPoint{Config: "z", Seconds: 0, DynEnergyJ: 1}); err == nil || !strings.Contains(err.Error(), "non-positive") {
		t.Errorf("non-positive seconds: %v", err)
	}

	cw, _ = newW()
	if err := cw.WriteFailed(FailedPoint{Config: "f"}); err == nil || !strings.Contains(err.Error(), "empty error") {
		t.Errorf("empty failure error: %v", err)
	}
}

func TestCampaignWriterEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCampaignWriter(&buf, "d", "gpu", device.Workload{App: "dgemm", N: 64, Products: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err == nil || !strings.Contains(err.Error(), "no results") {
		t.Fatalf("empty close: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty campaign leaked %d bytes", buf.Len())
	}
}

func TestCampaignWriterWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCampaignWriter(&buf, "d", "gpu", device.Workload{App: "dgemm", N: 64, Products: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WritePoint(MeasuredPoint{Config: "a", Seconds: 1, DynEnergyJ: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
	if err := cw.WritePoint(MeasuredPoint{Config: "b", Seconds: 1, DynEnergyJ: 1}); err == nil {
		t.Fatal("write after Close accepted")
	}
}

// failingWriter errors after n bytes to exercise sink-error stickiness.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestCampaignWriterSinkError(t *testing.T) {
	cw, err := NewCampaignWriter(&failingWriter{n: 10}, "d", "gpu", device.Workload{App: "dgemm", N: 64, Products: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for i := 0; i < 5 && sawErr == nil; i++ {
		sawErr = cw.WritePoint(MeasuredPoint{Config: string(rune('a' + i)), Seconds: 1, DynEnergyJ: 1})
	}
	if sawErr == nil || !strings.Contains(sawErr.Error(), "disk full") {
		t.Fatalf("sink error not surfaced: %v", sawErr)
	}
	if cw.Err() == nil {
		t.Fatal("sticky error not latched")
	}
	if err := cw.Close(); err == nil {
		t.Fatal("Close after sink error should fail")
	}
}

// Err returns the writer's sticky error, if any.
func (cw *CampaignWriter) Err() error { return cw.err }
