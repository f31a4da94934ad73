//go:build race

package randsrc

// raceEnabled reports that this binary was built with -race. The race
// runtime randomly drops sync.Pool puts, so pooled generators allocate
// under it by design; the alloc-count guards only run without it.
const raceEnabled = true
