//go:build !race

package memo

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
