package lint

import "testing"

func TestCacheKeyFlagsSprintfKeys(t *testing.T) {
	// The finding the rule exists for: fmt.Sprintf keys are not
	// injective over field boundaries, so two different measurements can
	// collide on one cache entry.
	src := `package campaign

import (
	"fmt"

	"energyprop/internal/memo"
)

func bad(c *memo.Cache[int], dev, cfg string) (int, error) {
	v, _, err := c.Do(fmt.Sprintf("%s-%s", dev, cfg), func() (int, error) { return 1, nil })
	return v, err
}

func badSprint(c *memo.Cache[int], dev, cfg string) (int, bool, error) {
	return c.Do(fmt.Sprint(dev, cfg), func() (int, error) { return 1, nil })
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, []want{
		{line: 10, rule: "seedflow", substr: "fmt.Sprintf"},
		{line: 15, rule: "seedflow", substr: "fmt.Sprint"},
	})
}

func TestCacheKeyFlagsRawConcatenation(t *testing.T) {
	src := `package campaign

import "energyprop/internal/memo"

func bad(c *memo.Cache[int], dev, cfg string) (int, error) {
	v, _, err := c.Do(dev+"/"+cfg, func() (int, error) { return 1, nil })
	return v, err
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, []want{
		{line: 6, rule: "seedflow", substr: "canonical digest helper"},
	})
}

func TestCacheKeyAcceptsDigestHelpers(t *testing.T) {
	// The sanctioned shapes: a direct Prefix.Digest call, a *Key helper
	// wrapping it, or a precomputed key-named value.
	src := `package campaign

import "energyprop/internal/memo"

func pointKey(dev, cfg string) string {
	return memo.NewPrefix("point/v1").Digest(dev, cfg)
}

func goodDirect(c *memo.Cache[int], dev, cfg string) (int, error) {
	v, _, err := c.Do(memo.Prefix{}.Digest("point/v1", dev, cfg), func() (int, error) { return 1, nil })
	return v, err
}

func goodHelper(c *memo.Cache[int], dev, cfg string) (int, error) {
	v, _, err := c.Do(pointKey(dev, cfg), func() (int, error) { return 1, nil })
	return v, err
}

func goodPrecomputed(c *memo.Cache[int], dev, cfg string) (int, bool, error) {
	key := pointKey(dev, cfg)
	return c.Do(key, func() (int, error) { return 1, nil })
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/campaign", src, nil)
}

func TestCacheKeyScopeLimits(t *testing.T) {
	// Outside the cache-key-scoped packages (e.g. an analysis tool) the
	// rule stays quiet: those caches do not address measured results.
	src := `package analysis

import "energyprop/internal/memo"

func unscoped(c *memo.Cache[int], raw string) (int, bool, error) {
	return c.Do(raw, func() (int, error) { return 1, nil })
}
`
	checkFixture(t, []Rule{SeedFlow{}}, "energyprop/internal/analysis", src, nil)
}
