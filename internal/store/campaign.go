// Package store persists campaign records as JSON so measurement
// campaigns can be captured once and re-analyzed (fronts, trade-offs,
// models) without re-running the simulators — mirroring how the paper's
// tooling separates the expensive measurement step from the analysis
// step. One backend-neutral schema (CampaignRecord) serves every
// registered device; CampaignWriter streams it point by point.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"energyprop/internal/device"
	"energyprop/internal/pareto"
)

// MeasuredPoint is one configuration's persisted measured outcome in a
// device-generic campaign: the configuration is identified by its stable
// key (device.Config.Key) plus a human-readable label, so the record's
// schema is the same for GPU (BS, G, R), CPU (partition, p, t), and
// hetero (unit distribution) campaigns.
type MeasuredPoint struct {
	// Config is the configuration's canonical key, e.g. "bs=24/g=1/r=8"
	// or "contiguous/p=2/t=12".
	Config string `json:"config"`
	// Label is the paper-style rendering, e.g. "(BS=24, G=1, R=8)".
	Label string `json:"label"`
	// Seconds is the model-true execution time (the paper measures kernel
	// time with CUDA events, energy with the meter).
	Seconds float64 `json:"seconds"`
	// DynPowerW is measured dynamic energy over true time.
	DynPowerW float64 `json:"dyn_power_w"`
	// DynEnergyJ is the measured (converged sample mean) dynamic energy.
	DynEnergyJ float64 `json:"dyn_energy_j"`
	// Attempts is how many measurement attempts the point consumed
	// (1 = first try; >1 means retries recovered it). Zero in records
	// predating attempt accounting.
	Attempts int `json:"attempts,omitempty"`
}

// FailedPoint is one configuration a degrading campaign could not
// measure within its retry budget: the error is recorded instead of
// aborting the sweep, and analysis (Pareto fronts, trade-offs) runs
// over the surviving Results.
type FailedPoint struct {
	// Config is the configuration's canonical key.
	Config string `json:"config"`
	// Label is the human-readable rendering.
	Label string `json:"label,omitempty"`
	// Attempts is how many attempts were burned before giving up.
	Attempts int `json:"attempts,omitempty"`
	// Error is the final attempt's error text.
	Error string `json:"error"`
}

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// CampaignRecord is one campaign on any registered device: a measured
// campaign, or a model-true sweep (gpusweep -json), whose points carry
// the model's energy.
type CampaignRecord struct {
	Version int `json:"version"`
	// Device is the hardware catalog name.
	Device string `json:"device"`
	// Kind is the backend class: "gpu", "cpu", or "hetero".
	Kind     string          `json:"kind"`
	Workload device.Workload `json:"workload"`
	Results  []MeasuredPoint `json:"results"`
	// Failed lists the points the campaign gave up on (fault injection,
	// transient device failures); empty for fully successful campaigns
	// and absent from records predating graceful degradation.
	Failed []FailedPoint `json:"failed,omitempty"`
}

// Points converts the record's results to pareto points.
func (c *CampaignRecord) Points() []pareto.Point {
	out := make([]pareto.Point, len(c.Results))
	for i, r := range c.Results {
		label := r.Label
		if label == "" {
			label = r.Config
		}
		out[i] = pareto.Point{Label: label, Time: r.Seconds, Energy: r.DynEnergyJ}
	}
	return out
}

// Validate checks structural integrity after loading.
func (c *CampaignRecord) Validate() error {
	if c.Version != FormatVersion {
		return fmt.Errorf("store: unsupported format version %d (want %d)", c.Version, FormatVersion)
	}
	if c.Device == "" {
		return errors.New("store: empty device name")
	}
	if c.Kind == "" {
		return errors.New("store: empty device kind")
	}
	if err := c.Workload.Validate(); err != nil {
		return fmt.Errorf("store: bad workload: %w", err)
	}
	if len(c.Results) == 0 && len(c.Failed) == 0 {
		return errors.New("store: no results")
	}
	seen := make(map[string]bool, len(c.Results)+len(c.Failed))
	for i, r := range c.Results {
		if err := checkResult(i, r, seen); err != nil {
			return err
		}
	}
	for i, f := range c.Failed {
		if err := checkFailed(i, f, seen); err != nil {
			return err
		}
	}
	return nil
}

// checkResult checks result i of a record and marks its configuration
// seen: Validate applies it on load, CampaignWriter at write time.
func checkResult(i int, r MeasuredPoint, seen map[string]bool) error {
	if r.Config == "" {
		return fmt.Errorf("store: result %d has empty config key", i)
	}
	if seen[r.Config] {
		return fmt.Errorf("store: duplicate config %q", r.Config)
	}
	seen[r.Config] = true
	if r.Seconds <= 0 || r.DynEnergyJ <= 0 {
		return fmt.Errorf("store: result %d (%s) has non-positive measurements", i, r.Config)
	}
	if r.Attempts < 0 {
		return fmt.Errorf("store: result %d (%s) has negative attempts", i, r.Config)
	}
	return nil
}

// checkFailed is checkResult for failed point i.
func checkFailed(i int, f FailedPoint, seen map[string]bool) error {
	if f.Config == "" {
		return fmt.Errorf("store: failed point %d has empty config key", i)
	}
	if seen[f.Config] {
		return fmt.Errorf("store: duplicate config %q", f.Config)
	}
	seen[f.Config] = true
	if f.Error == "" {
		return fmt.Errorf("store: failed point %d (%s) has empty error", i, f.Config)
	}
	if f.Attempts < 0 {
		return fmt.Errorf("store: failed point %d (%s) has negative attempts", i, f.Config)
	}
	return nil
}

// LoadCampaign reads and validates a record.
func LoadCampaign(r io.Reader) (*CampaignRecord, error) {
	var rec CampaignRecord
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("store: decoding: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}
