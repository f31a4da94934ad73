package stats

import (
	"math"
	"sync/atomic"
)

// The measurement loop asks for the same Student-t critical values over
// and over: one per convergence check, at the paper's 95% level and an
// integer ν = n−1. StudentTQuantile bisects the CDF up to 200 times per
// call, so the loop reads t* from a table instead. An entry is the very
// float64 StudentTQuantile returned for it, so a table read is bit-exact
// by construction.

// tCritMaxNu bounds the table: integer ν up to the default MaxRuns.
// Larger ν go to the solver.
const tCritMaxNu = 1000

// tCritTable holds the critical values at defaultConfidence. Entry ν is
// the Float64bits of StudentTQuantile(defaultConfidence, ν), or 0 while
// not yet computed: a two-sided critical value is always positive. Two
// goroutines that miss the same entry both compute it and store the same
// bits, so readers need no lock.
type tCritTable [tCritMaxNu + 1]atomic.Uint64

// tCrit is the process-wide table ConfidenceHalfWidth reads.
var tCrit tCritTable

// critical returns StudentTQuantile(confidence, float64(nu)), read from
// the table when confidence is defaultConfidence and nu is in
// [1, tCritMaxNu]; every other input goes to the solver. A table hit
// does not allocate.
func (tb *tCritTable) critical(confidence float64, nu int) (float64, error) {
	if nu < 1 || nu > tCritMaxNu || math.Float64bits(confidence) != math.Float64bits(defaultConfidence) {
		return StudentTQuantile(confidence, float64(nu))
	}
	if b := tb[nu].Load(); b != 0 {
		return math.Float64frombits(b), nil
	}
	t, err := StudentTQuantile(confidence, float64(nu))
	if err == nil {
		tb[nu].Store(math.Float64bits(t))
	}
	return t, err
}
