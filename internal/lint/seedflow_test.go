package lint

import "testing"

func TestSeedFlowFlagsLoopDerivedSeeds(t *testing.T) {
	src := `package campaign

import "math/rand"

// The historical bug: seeding from the enumeration index makes the
// record depend on sweep order.
func bad(n int) []*rand.Rand {
	out := make([]*rand.Rand, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rand.New(rand.NewSource(int64(i)*7919)))
	}
	return out
}

func badRange(configs []int) []*rand.Rand {
	var out []*rand.Rand
	for idx := range configs {
		out = append(out, rand.New(rand.NewSource(int64(idx))))
	}
	return out
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, []want{
		{line: 10, rule: "seedflow", substr: `loop variable "i"`},
		{line: 18, rule: "seedflow", substr: `loop variable "idx"`},
	})
}

func TestSeedFlowFlagsSeedlessSources(t *testing.T) {
	src := `package meter

import "math/rand"

func bad() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

// The meter is the layer that receives an already-derived seed: passing
// the raw value on is the lenient rule, and stays allowed here.
func goodDirect(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/meter", src, []want{
		{line: 6, rule: "seedflow", substr: "does not derive from a campaign seed"},
	})
}

func TestSeedFlowStrictRequiresHelperInCampaign(t *testing.T) {
	// Above the device abstraction, even a seed-named field is not enough:
	// the generator seed must flow through the derivation helper, or two
	// backends could end up with different seeding contracts.
	src := `package campaign

import "math/rand"

func badDirect(spec struct{ Seed int64 }) *rand.Rand {
	return rand.New(rand.NewSource(spec.Seed))
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, []want{
		{line: 6, rule: "seedflow", substr: "bypasses the device-generic seed helper"},
	})
}

func TestSeedFlowStrictAppliesToService(t *testing.T) {
	src := `package service

import "math/rand"

func bad(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/service", src, []want{
		{line: 6, rule: "seedflow", substr: "bypasses the device-generic seed helper"},
	})
}

func TestSeedFlowLenientInDevicePackage(t *testing.T) {
	// The device package hosts ConfigSeed itself; an adapter threading a
	// seed value through is in scope but held to the lenient rule only.
	src := `package device

import "math/rand"

func adapterRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func bad() *rand.Rand {
	return rand.New(rand.NewSource(7))
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/device", src, []want{
		{line: 10, rule: "seedflow", substr: "does not derive from a campaign seed"},
	})
}

func TestSeedFlowAllowsSeedDerivedSources(t *testing.T) {
	// v2 semantics: a helper is blessed because device.ConfigSeed's value
	// actually flows through it, not because its name contains "seed".
	// The loop value feeds the hash as identity input through the
	// helper's arguments, which is the designed shape.
	src := `package campaign

import (
	"math/rand"

	"energyprop/internal/device"
)

type cfg struct{ bs int }

func (cfg) Key() string    { return "bs" }
func (cfg) String() string { return "(BS)" }

// configSeed wraps the real derivation helper, so its result carries
// taint from device.ConfigSeed.
func configSeed(seed int64, c device.Config) int64 {
	return device.ConfigSeed(seed, c)
}

func good(seed int64, configs []cfg) []*rand.Rand {
	var out []*rand.Rand
	for _, c := range configs {
		out = append(out, rand.New(rand.NewSource(configSeed(seed, c))))
	}
	return out
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, nil)
}

func TestSeedFlowCatchesLaunderedSeeds(t *testing.T) {
	// The exact hole v1 left open: a raw value laundered through a
	// seed-named local and a seed-named helper passed the syntactic
	// check. Under taint, blessing comes only from device.ConfigSeed's
	// value flowing, whatever the names say.
	src := `package campaign

import "math/rand"

// deriveSeed is seed-named but derives from nothing: v1 blessed it,
// v2 does not.
func deriveSeed(n int) int64 { return int64(n) * 7919 }

func badHelper(idx int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(idx)))
}

func badLocal(n int) *rand.Rand {
	seed := int64(n) * 2654435761
	return rand.New(rand.NewSource(seed))
}

type spec struct{ Seed int64 }

func badField(n int) *rand.Rand {
	s := spec{Seed: int64(n)}
	return rand.New(rand.NewSource(s.Seed))
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, []want{
		{line: 10, rule: "seedflow", substr: "bypasses the device-generic seed helper"},
		{line: 15, rule: "seedflow", substr: "bypasses the device-generic seed helper"},
		{line: 22, rule: "seedflow", substr: "bypasses the device-generic seed helper"},
	})
}

func TestSeedFlowBlessingFlowsThroughFieldsAndHelpers(t *testing.T) {
	// The inverse of the laundering test: once device.ConfigSeed's value
	// enters, it stays blessed through a local, a struct field, and a
	// helper return — a ≥2-hop chain (good → pack → unpack → sink arg).
	src := `package campaign

import (
	"math/rand"

	"energyprop/internal/device"
)

type cfg struct{}

func (cfg) Key() string    { return "k" }
func (cfg) String() string { return "k" }

type box struct{ value int64 }

func pack(seed int64, c device.Config) box {
	derived := device.ConfigSeed(seed, c)
	return box{value: derived}
}

func unpack(b box) int64 { return b.value }

func good(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(unpack(pack(seed, cfg{}))))
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, nil)
}

func TestSeedFlowChecksCrossPackageConduits(t *testing.T) {
	// meter.NewMeter(idle, seed) never touches rand in campaign code —
	// the constructor two packages away does. With the real meter package
	// analyzed alongside the fixture, the dataflow engine discovers
	// NewMeter's seed parameter as a conduit (it flows to rand.NewSource
	// inside the meter), and holds campaign call sites to the strict
	// rule.
	src := `package campaign

import (
	"energyprop/internal/device"
	"energyprop/internal/meter"
)

type cfg struct{}

func (cfg) Key() string    { return "k" }
func (cfg) String() string { return "k" }

func bad(idle float64, n int) *meter.Meter {
	return meter.NewMeter(idle, int64(n)*7919)
}

func good(idle float64, seed int64) *meter.Meter {
	return meter.NewMeter(idle, device.ConfigSeed(seed, cfg{}))
}
`
	checkFixturePkgs(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src,
		[]string{"energyprop/internal/meter"}, []want{
			{line: 14, rule: "seedflow", substr: "seed for meter.NewMeter"},
		})
}

func TestSeedFlowTreatsReseedAsSink(t *testing.T) {
	// Reseeding a generator in place fixes its sequence exactly as
	// rand.NewSource does, so a Seed call is held to the same rule.
	src := `package meter

import "math/rand"

func bad(r *rand.Rand) { r.Seed(42) }

func good(r *rand.Rand, seed int64) { r.Seed(seed) }
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/meter", src, []want{
		{line: 5, rule: "seedflow", substr: "seed for rand.Seed is 42"},
	})
}

func TestSeedFlowChecksMeterResetConduit(t *testing.T) {
	// campaign.meterLoop reseeds a pooled meter with Meter.Reset instead
	// of building one with NewMeter. Reset's seed parameter reaches the
	// generator inside the meter, so the engine discovers it as a conduit
	// too: a raw campaign seed or an index handed to Reset in campaign
	// code is a finding, exactly as it would be for NewMeter.
	src := `package campaign

import (
	"energyprop/internal/device"
	"energyprop/internal/meter"
)

type cfg struct{}

func (cfg) Key() string    { return "k" }
func (cfg) String() string { return "k" }

func badRaw(m *meter.Meter, idle float64, seed int64) {
	m.Reset(idle, seed)
}

func badIndex(ms []*meter.Meter, idle float64) {
	for i, m := range ms {
		m.Reset(idle, int64(i))
	}
}

func good(m *meter.Meter, idle float64, seed int64) {
	m.Reset(idle, device.ConfigSeed(seed, cfg{}))
}
`
	checkFixturePkgs(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src,
		[]string{"energyprop/internal/meter"}, []want{
			{line: 14, rule: "seedflow", substr: "seed for meter.Reset is seed, which bypasses"},
			{line: 19, rule: "seedflow", substr: `seed for meter.Reset derives from loop variable "i"`},
		})
}

func TestSeedFlowBlessesKeySeed(t *testing.T) {
	// campaign.Job.MeasureOn builds a point's key once and derives its
	// seed with device.KeySeed, the key form of ConfigSeed: that seed is
	// blessed. An FNV hash of the key rolled by hand computes the same
	// kind of value but is not the shared helper, so it stays a finding.
	src := `package campaign

import (
	"hash/fnv"

	"energyprop/internal/device"
	"energyprop/internal/meter"
)

func good(m *meter.Meter, idle float64, seed int64, key string) {
	m.Reset(idle, device.KeySeed(seed, key))
}

func badHandRolled(m *meter.Meter, idle float64, seed int64, key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	m.Reset(idle, seed^int64(h.Sum64()))
}
`
	checkFixturePkgs(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src,
		[]string{"energyprop/internal/meter"}, []want{
			{line: 17, rule: "seedflow", substr: "bypasses the device-generic seed helper"},
		})
}

func TestSeedFlowTreatsRandsrcSeedAsSink(t *testing.T) {
	// A meter whose Reset seeds its randsrc.Source directly, with no
	// rand.Rand.Seed or rand constructor anywhere on the path: the
	// source's Seed is a sink in its own right, so Reset and NewMeter
	// stay discovered conduits and their call sites are still checked.
	src := `package meter

import (
	"math/rand"

	"energyprop/internal/randsrc"
)

type Meter struct {
	src *randsrc.Source
	rng *rand.Rand
}

func (m *Meter) Reset(idle float64, seed int64) {
	if m.src == nil {
		m.src = new(randsrc.Source)
		m.rng = rand.New(m.src)
	}
	m.src.Seed(seed)
}

func NewMeter(idle float64, seed int64) *Meter {
	m := new(Meter)
	m.Reset(idle, seed)
	return m
}

func badFixed(m *Meter) { m.Reset(80, 42) }

func badNew() *Meter { return NewMeter(80, 7) }

func badIndex(ms []*Meter) {
	for i, m := range ms {
		m.Reset(80, int64(i))
	}
}

func badDirect(s *randsrc.Source) { s.Seed(3) }

func good(m *Meter, seed int64) *Meter {
	m.Reset(80, seed)
	return NewMeter(80, seed)
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/meter", src, []want{
		{line: 28, rule: "seedflow", substr: "seed for meter.Reset is 42"},
		{line: 30, rule: "seedflow", substr: "seed for meter.NewMeter is 7"},
		{line: 34, rule: "seedflow", substr: `seed for meter.Reset derives from loop variable "i"`},
		{line: 38, rule: "seedflow", substr: "seed for randsrc.Seed is 3"},
	})
}

func TestSeedFlowIgnoresOutOfScopePackages(t *testing.T) {
	// stats test helpers and examples may seed however they like.
	src := `package stats

import "math/rand"

func helper() *rand.Rand { return rand.New(rand.NewSource(7)) }
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/stats", src, nil)
}
