package store

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"energyprop/internal/device"
)

// degradedRecord builds a valid record with both survivors and failures.
func degradedRecord() *CampaignRecord {
	return &CampaignRecord{
		Version:  FormatVersion,
		Device:   "Tesla P100",
		Kind:     "gpu",
		Workload: device.Workload{App: "dgemm", N: 1024, Products: 2}.Normalized(),
		Results: []MeasuredPoint{
			{Config: "bs=8/g=1/r=2", Label: "(BS=8, G=1, R=2)", Seconds: 0.5, DynPowerW: 80, DynEnergyJ: 40, Attempts: 3},
			{Config: "bs=4/g=2/r=1", Label: "(BS=4, G=2, R=1)", Seconds: 0.7, DynPowerW: 60, DynEnergyJ: 42},
		},
		Failed: []FailedPoint{
			{Config: "bs=2/g=1/r=2", Label: "(BS=2, G=1, R=2)", Attempts: 4, Error: "fault: injected transient device failure"},
		},
	}
}

// saveCampaign writes a materialized record as indented JSON: the
// byte-identity oracle CampaignWriter's indented mode must reproduce.
func saveCampaign(w io.Writer, rec *CampaignRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// TestCampaignFailedRoundTrip: a degraded record (results + failed)
// survives save/load byte-exactly, attempts included.
func TestCampaignFailedRoundTrip(t *testing.T) {
	rec := degradedRecord()
	var buf bytes.Buffer
	if err := saveCampaign(&buf, rec); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := LoadCampaign(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Failed) != 1 || got.Failed[0].Attempts != 4 || got.Failed[0].Error == "" {
		t.Errorf("failed section did not round-trip: %+v", got.Failed)
	}
	if got.Results[0].Attempts != 3 || got.Results[1].Attempts != 0 {
		t.Errorf("attempts did not round-trip: %+v", got.Results)
	}
	var buf2 bytes.Buffer
	if err := saveCampaign(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Errorf("re-serialization differs:\nfirst:  %s\nsecond: %s", first, buf2.String())
	}
}

// TestCampaignAttemptsOmittedWhenZero: fault-free records carry no
// attempts or failed keys, so pre-chaos records stay byte-identical.
func TestCampaignAttemptsOmittedWhenZero(t *testing.T) {
	rec := degradedRecord()
	rec.Failed = nil
	rec.Results[0].Attempts = 0
	var buf bytes.Buffer
	if err := saveCampaign(&buf, rec); err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{`"attempts"`, `"failed"`} {
		if strings.Contains(buf.String(), forbidden) {
			t.Errorf("fault-free record contains %s:\n%s", forbidden, buf.String())
		}
	}
}

// TestCampaignValidateDegraded exercises the validation paths the failed
// section adds.
func TestCampaignValidateDegraded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*CampaignRecord)
		want   string
	}{
		{"all-failed-valid", func(r *CampaignRecord) { r.Results = nil }, ""},
		{"both-empty", func(r *CampaignRecord) { r.Results = nil; r.Failed = nil }, "no results"},
		{"dup-across-lists", func(r *CampaignRecord) { r.Failed[0].Config = r.Results[0].Config }, "duplicate config"},
		{"dup-within-failed", func(r *CampaignRecord) {
			r.Failed = append(r.Failed, r.Failed[0])
		}, "duplicate config"},
		{"failed-empty-config", func(r *CampaignRecord) { r.Failed[0].Config = "" }, "empty config"},
		{"failed-empty-error", func(r *CampaignRecord) { r.Failed[0].Error = "" }, "empty error"},
		{"failed-negative-attempts", func(r *CampaignRecord) { r.Failed[0].Attempts = -1 }, "negative attempts"},
		{"result-negative-attempts", func(r *CampaignRecord) { r.Results[0].Attempts = -1 }, "negative attempts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := degradedRecord()
			tc.mutate(rec)
			err := rec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Errorf("valid record rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid record accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
