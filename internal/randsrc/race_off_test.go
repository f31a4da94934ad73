//go:build !race

package randsrc

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
