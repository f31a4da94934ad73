// Idle-power accounting for the energy-policy study: both run types
// model a fixed deadline window instead of just the busy interval, which
// is the accounting difference between racing to idle and pacing with
// DVFS. Energy is integrated over the whole window, and a configurable
// deep-idle floor is what the node draws when the work is done.
package meter

// WindowRun is the race-to-idle power profile: the busy profile plays
// unchanged, then the node drops to the deep-idle floor until the
// deadline. Its duration is the deadline window, so a meter sampling it
// integrates the idle tail — the energy a busy-window-only measurement
// silently drops.
type WindowRun struct {
	// Busy is the total node power profile while the work runs.
	Busy Run
	// DeadlineS is the window length; must be at least Busy.Duration().
	DeadlineS float64
	// FloorW is the node's deep-idle power after the work completes
	// (package C-state floor, typically well below the active-idle
	// baseline).
	FloorW float64
}

// Duration implements Run: the deadline window, not the busy interval.
func (w WindowRun) Duration() float64 { return w.DeadlineS }

// PowerAt implements Run.
func (w WindowRun) PowerAt(t float64) float64 {
	if t < w.Busy.Duration() {
		return w.Busy.PowerAt(t)
	}
	return w.FloorW
}

// PacedRun is the DVFS-paced power profile: the busy profile stretched
// over the whole window at a lower clock. The baseline (active-idle)
// component of node power does not scale with frequency; the dynamic
// component above it is scaled by PowerScale (s^-alpha for a stretch s
// under a P ~ f^alpha law).
type PacedRun struct {
	// Base is the unstretched total node power profile.
	Base Run
	// Stretch is the slowdown factor (>= 1): the paced run takes
	// Stretch x Base.Duration().
	Stretch float64
	// BaselineW is the power level that does not scale with frequency
	// (the node's active-idle draw).
	BaselineW float64
	// PowerScale multiplies the dynamic component (Base power minus
	// BaselineW); in (0, 1] for a down-clocked run.
	PowerScale float64
}

// Duration implements Run.
func (p PacedRun) Duration() float64 { return p.Stretch * p.Base.Duration() }

// PowerAt implements Run: time maps back onto the unstretched profile,
// power scales only above the baseline.
func (p PacedRun) PowerAt(t float64) float64 {
	base := p.Base.PowerAt(t / p.Stretch)
	return p.BaselineW + (base-p.BaselineW)*p.PowerScale
}

// windowTrueEnergy integrates a WindowRun exactly: the busy profile's
// exact energy plus the floor tail.
func windowTrueEnergy(w WindowRun) float64 {
	busy := w.Busy.Duration()
	return TrueEnergy(w.Busy) + w.FloorW*(w.DeadlineS-busy)
}

// pacedTrueEnergy integrates a PacedRun exactly: substituting u = t/s
// into the integral gives s x the scaled base energy above baseline,
// plus the baseline over the stretched window.
func pacedTrueEnergy(p PacedRun) float64 {
	baseDur := p.Base.Duration()
	baseAbove := TrueEnergy(p.Base) - p.BaselineW*baseDur
	return p.BaselineW*p.Stretch*baseDur + baseAbove*p.PowerScale*p.Stretch
}
