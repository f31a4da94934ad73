package main

import (
	"fmt"
	"strings"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/experiment"
	"energyprop/internal/pareto"
	"energyprop/internal/policy"
)

// parsePolicies resolves the -policies flag: a comma-separated strategy
// list, empty meaning every registered strategy.
func parsePolicies(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !policy.ValidStrategy(name) {
			return nil, fmt.Errorf("-policies: unknown strategy %q (known: %v)", name, policy.Strategies())
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-policies: empty strategy list")
	}
	return out, nil
}

// comparePolicies tabulates race vs paced per inner configuration: the
// energy question the study answers. Nil when the campaign did not run
// both strategies.
func comparePolicies(reports []campaign.PointReport, w device.Workload) *experiment.Table {
	type pair struct{ race, paced *campaign.PointReport }
	pairs := map[string]*pair{}
	var order []string
	for i := range reports {
		p := reports[i]
		pt := p.Config.(policy.Point)
		key := pt.Inner.Key()
		pr, ok := pairs[key]
		if !ok {
			pr = &pair{}
			pairs[key] = pr
			order = append(order, key)
		}
		switch pt.Strategy {
		case policy.RaceToIdle:
			pr.race = &reports[i]
		case policy.DVFSPaced:
			pr.paced = &reports[i]
		}
	}
	t := &experiment.Table{
		Title:   fmt.Sprintf("Race-to-idle vs DVFS-paced over the deadline window, %s", w),
		Columns: []string{"config", "race_s", "race_j", "paced_s", "paced_j", "paced_minus_race_j", "winner"},
	}
	raceWins, pacedWins := 0, 0
	for _, key := range order {
		pr := pairs[key]
		if pr.race == nil || pr.paced == nil {
			continue
		}
		delta := pr.paced.MeasuredEnergyJ - pr.race.MeasuredEnergyJ
		winner := policy.DVFSPaced
		if delta > 0 {
			winner = policy.RaceToIdle
			raceWins++
		} else {
			pacedWins++
		}
		pt := pr.race.Config.(policy.Point)
		t.AddRow(pt.Inner.String(),
			fmt.Sprintf("%.4f", pr.race.TrueSeconds),
			fmt.Sprintf("%.1f", pr.race.MeasuredEnergyJ),
			fmt.Sprintf("%.4f", pr.paced.TrueSeconds),
			fmt.Sprintf("%.1f", pr.paced.MeasuredEnergyJ),
			fmt.Sprintf("%+.1f", delta),
			winner)
	}
	if raceWins+pacedWins == 0 {
		return nil
	}
	t.AddNote("winners: race %d, paced %d of %d configurations (energy above the deep-idle floor over the window)",
		raceWins, pacedWins, raceWins+pacedWins)
	return t
}

// policyFront renders the Pareto front over policy × configuration —
// the front the /optimize endpoint serves incrementally.
func policyFront(reports []campaign.PointReport, w device.Workload) *experiment.Table {
	pts := make([]pareto.Point, 0, len(reports))
	for _, p := range reports {
		pts = append(pts, pareto.Point{Label: p.Config.String(), Time: p.TrueSeconds, Energy: p.MeasuredEnergyJ})
	}
	front := pareto.Front(pts)
	t := &experiment.Table{
		Title:   fmt.Sprintf("Pareto front over policy x configuration, %s", w),
		Columns: []string{"config", "seconds", "measured_j"},
	}
	perStrategy := map[string]int{}
	for _, p := range front {
		t.AddRow(p.Label, fmt.Sprintf("%.4f", p.Time), fmt.Sprintf("%.1f", p.Energy))
		for _, s := range policy.Strategies() {
			if strings.HasPrefix(p.Label, "("+s+" ") {
				perStrategy[s]++
			}
		}
	}
	t.AddNote("front: %d of %d points (race %d, paced %d)",
		len(front), len(pts), perStrategy[policy.RaceToIdle], perStrategy[policy.DVFSPaced])
	return t
}
