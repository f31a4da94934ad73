package lint

import "testing"

func TestNoDetermFlagsWallClockAndGlobalRand(t *testing.T) {
	src := `package meter

import (
	"math/rand"
	"time"
)

func bad() (int64, float64) {
	start := time.Now()
	_ = time.Since(start)
	n := rand.Intn(10)
	rand.Shuffle(n, func(i, j int) {})
	return start.Unix(), rand.Float64()
}
`
	checkFixture(t, []Rule{NoDeterm{}}, "energyprop/internal/meter", src, []want{
		{line: 9, rule: "nodeterm", substr: "time.Now"},
		{line: 10, rule: "nodeterm", substr: "time.Since"},
		{line: 11, rule: "nodeterm", substr: "rand.Intn"},
		{line: 12, rule: "nodeterm", substr: "rand.Shuffle"},
		{line: 13, rule: "nodeterm", substr: "rand.Float64"},
	})
}

func TestNoDetermAllowsSeededGeneratorsAndInjectedClocks(t *testing.T) {
	src := `package meter

import (
	"math/rand"
	"time"
)

// A seeded generator and non-reading time APIs are the sanctioned forms.
func good(seed int64, d time.Duration) float64 {
	rng := rand.New(rand.NewSource(seed))
	_ = d.Seconds()
	_ = time.Duration(5) * time.Second
	return rng.Float64()
}
`
	checkFixture(t, []Rule{NoDeterm{}}, "energyprop/internal/meter", src, nil)
}

func TestNoDetermIgnoresOutOfScopePackages(t *testing.T) {
	// The same wall-clock read in a package outside the determinism
	// contract (e.g. a CLI) is not a finding.
	src := `package main

import "time"

func main() {
	_ = time.Now()
}
`
	checkFixture(t, []Rule{NoDeterm{}}, "energyprop/cmd/epmeterd", src, nil)
}

func TestNoDetermResolvesRenamedImports(t *testing.T) {
	src := `package policy

import (
	mrand "math/rand"
)

func bad() int {
	return mrand.Int()
}

// rand is a local identifier here, not the package: no finding.
func decoy() int {
	rand := struct{ Intn func(int) int }{Intn: func(n int) int { return n }}
	return rand.Intn(3)
}
`
	checkFixture(t, []Rule{NoDeterm{}}, "energyprop/internal/policy", src, []want{
		{line: 8, rule: "nodeterm", substr: "rand.Int"},
	})
}
