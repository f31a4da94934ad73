package ep

import (
	"errors"
	"fmt"
	"sort"
)

// This file implements the EP metrics the related-work section surveys,
// so the library can quantify proportionality the way the server
// literature does, not only give binary verdicts.

// utilPower is one (utilization, power) observation.
type utilPower struct{ u, p float64 }

// prepareCurve validates and sorts a utilization→power curve. Utilization
// is a fraction in [0, 1]; power must be non-negative with positive power
// at the highest utilization.
func prepareCurve(utils, power []float64) ([]utilPower, error) {
	if len(utils) != len(power) {
		return nil, errors.New("ep: utilization and power lengths differ")
	}
	if len(utils) < 2 {
		return nil, errors.New("ep: metric needs at least 2 points")
	}
	pts := make([]utilPower, len(utils))
	for i := range utils {
		if utils[i] < 0 || utils[i] > 1 {
			return nil, fmt.Errorf("ep: utilization %v out of [0,1]", utils[i])
		}
		if power[i] < 0 {
			return nil, fmt.Errorf("ep: negative power %v", power[i])
		}
		pts[i] = utilPower{utils[i], power[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].u < pts[j].u })
	if pts[len(pts)-1].p <= 0 {
		return nil, errors.New("ep: power at peak utilization must be positive")
	}
	return pts, nil
}

// RyckboschEP computes the proportionality metric of Ryckbosch et al.:
// one minus the area between the actual power curve and the ideal
// (linear-through-origin to peak power) curve, divided by the area under
// the ideal curve. A perfectly proportional system scores 1; higher
// deviation scores lower (can go negative for grossly non-proportional
// curves).
func RyckboschEP(utils, power []float64) (float64, error) {
	pts, err := prepareCurve(utils, power)
	if err != nil {
		return 0, err
	}
	peak := pts[len(pts)-1].p
	uMax := pts[len(pts)-1].u
	if uMax == 0 {
		return 0, errors.New("ep: peak utilization is zero")
	}
	ideal := func(u float64) float64 { return peak * u / uMax }
	var areaDev, areaIdeal float64
	for i := 1; i < len(pts); i++ {
		du := pts[i].u - pts[i-1].u
		if du == 0 {
			continue
		}
		devL := abs(pts[i-1].p - ideal(pts[i-1].u))
		devR := abs(pts[i].p - ideal(pts[i].u))
		areaDev += du * (devL + devR) / 2
		areaIdeal += du * (ideal(pts[i-1].u) + ideal(pts[i].u)) / 2
	}
	if areaIdeal == 0 {
		return 0, errors.New("ep: degenerate ideal curve")
	}
	return 1 - areaDev/areaIdeal, nil
}

// LinearityR2 reports the R² of the best linear fit of power against
// utilization — the statistic works like Fan et al.'s "nearly linear
// against CPU utilization" observation. Note a high R² does NOT certify a
// functional relationship: the paper's Fig 4 point clouds can have
// moderate R² while power is not a function of utilization at all, which
// is why FunctionalSpread below exists.
func LinearityR2(utils, power []float64) (float64, error) {
	pts, err := prepareCurve(utils, power)
	if err != nil {
		return 0, err
	}
	// Inline least squares (the stats dependency would be circular in
	// spirit: this is the metric's own definition).
	n := float64(len(pts))
	var su, sp, suu, sup float64
	for _, q := range pts {
		su += q.u
		sp += q.p
		suu += q.u * q.u
		sup += q.u * q.p
	}
	mu, mp := su/n, sp/n
	den := suu - n*mu*mu
	if den == 0 {
		return 0, errors.New("ep: constant utilization")
	}
	slope := (sup - n*mu*mp) / den
	var ssRes, ssTot float64
	for _, q := range pts {
		pred := mp + slope*(q.u-mu)
		ssRes += (q.p - pred) * (q.p - pred)
		ssTot += (q.p - mp) * (q.p - mp)
	}
	if ssTot == 0 {
		return 1, nil
	}
	return 1 - ssRes/ssTot, nil
}

// FunctionalSpread measures how far power is from being a *function* of
// utilization: points are bucketed by utilization (bucket width du), and
// the largest relative power spread within any bucket is returned. A
// value near 0 means power is (locally) a function of utilization; the
// paper's Fig 4 non-functional clouds produce large values.
func FunctionalSpread(utils, power []float64, du float64) (float64, error) {
	pts, err := prepareCurve(utils, power)
	if err != nil {
		return 0, err
	}
	if du <= 0 {
		return 0, errors.New("ep: bucket width must be positive")
	}
	type mm struct{ lo, hi float64 }
	buckets := map[int]*mm{}
	for _, q := range pts {
		k := int(q.u / du)
		b, ok := buckets[k]
		if !ok {
			buckets[k] = &mm{q.p, q.p}
			continue
		}
		if q.p < b.lo {
			b.lo = q.p
		}
		if q.p > b.hi {
			b.hi = q.p
		}
	}
	worst := 0.0
	for _, b := range buckets {
		if b.lo <= 0 {
			continue
		}
		if s := (b.hi - b.lo) / b.lo; s > worst {
			worst = s
		}
	}
	return worst, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
