package counters

import (
	"errors"
	"fmt"

	"energyprop/internal/stats"
)

// Sample is one observation for energy-model fitting: an application run's
// event counts and its measured dynamic energy.
type Sample struct {
	Counts  Counts
	EnergyJ float64
}

// EnergyModel is a linear dynamic-energy predictive model over a set of
// (additive) events: E = β₀ + Σ βᵢ·count(eventᵢ).
type EnergyModel struct {
	Events []Event
	// Coef holds β₀ followed by one coefficient per event.
	Coef []float64
	// R2 is the fit's coefficient of determination.
	R2 float64
}

// FitEnergyModel fits a linear dynamic-energy model on the given events.
// Callers should pass events that survived the additivity test; the
// function itself only checks the regression's well-posedness.
func FitEnergyModel(samples []Sample, events []Event) (*EnergyModel, error) {
	if len(events) == 0 {
		return nil, errors.New("counters: no model events")
	}
	if len(samples) < len(events)+2 {
		return nil, fmt.Errorf("counters: %d samples cannot identify %d coefficients",
			len(samples), len(events)+1)
	}
	rows := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		row := make([]float64, len(events))
		for j, e := range events {
			v, ok := s.Counts[e]
			if !ok {
				return nil, fmt.Errorf("counters: sample %d missing event %s", i, e)
			}
			row[j] = v
		}
		rows[i] = row
		ys[i] = s.EnergyJ
	}
	coef, r2, err := stats.MultipleRegression(rows, ys)
	if err != nil {
		return nil, fmt.Errorf("counters: fitting energy model: %w", err)
	}
	return &EnergyModel{Events: append([]Event(nil), events...), Coef: coef, R2: r2}, nil
}

// CorrelationWithEnergy returns each event's Pearson correlation with the
// samples' dynamic energy — the paper's second model-variable criterion
// ("high positive correlation with dynamic energy"). Events whose counts
// are constant across the samples are skipped.
func CorrelationWithEnergy(samples []Sample, events []Event) (map[Event]float64, error) {
	if len(samples) < 2 {
		return nil, errors.New("counters: need at least 2 samples")
	}
	ys := make([]float64, len(samples))
	for i, s := range samples {
		ys[i] = s.EnergyJ
	}
	out := map[Event]float64{}
	for _, e := range events {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			v, ok := s.Counts[e]
			if !ok {
				return nil, fmt.Errorf("counters: sample %d missing event %s", i, e)
			}
			xs[i] = v
		}
		r, err := stats.PearsonCorrelation(xs, ys)
		if err != nil {
			continue // constant series: not a usable model variable
		}
		out[e] = r
	}
	return out, nil
}
