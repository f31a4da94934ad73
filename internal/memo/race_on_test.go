//go:build race

package memo

// raceEnabled reports that this binary was built with -race. The race
// runtime randomly drops sync.Pool puts, so pooled hashers allocate
// under it by design; the alloc-count guard only runs without it.
const raceEnabled = true
