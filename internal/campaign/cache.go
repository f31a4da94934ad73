package campaign

import (
	"strconv"

	"energyprop/internal/device"
	"energyprop/internal/memo"
)

// PointCache memoizes measured points across campaigns. Since PR 3 a
// point is a pure function of (device identity, workload, configuration
// key, campaign seed) — the simulators are deterministic and the
// meter's noise is seeded by device.ConfigSeed — so a cached point is
// bit-identical to a recomputed one and the cache is invisible except
// in wall-clock and allocation numbers.
//
// Sharing a PointCache is only sound across devices opened fresh from
// the device registry: the cache keys on the device's registry name and
// catalog identity, so a hand-built device whose behaviour differs from
// the registered one under the same name (e.g. an ablated simulator)
// must not share a cache with it.
type PointCache = memo.Cache[PointReport]

// NewPointCache builds a measured-point cache bounded to capacity
// entries (non-positive selects memo.DefaultCapacity).
func NewPointCache(capacity int) *PointCache {
	return memo.New[PointReport](capacity)
}

// pointPrefix digests a point's canonical content-addressed cache key up
// to its configuration. The key must cover everything a measured point
// is a function of: the device's identity, the normalized workload, the
// configuration key (the same identity device.ConfigSeed hashes for the
// meter seed), the campaign seed, and every Spec knob that shapes the
// statistical loop. Two campaigns that agree on all of these produce
// bit-identical points, so a digest collision-free over these fields
// makes the cache exact. A model-true point is a function of the device
// run alone, so its key digests only the device identity, workload and
// configuration key, under a domain tag of its own.
//
// The fields before the configuration key are a saved hash state, the
// spec fields after it encoded bytes. They are the same for every point
// of a campaign, so a point's key costs one hash of its configuration
// key.
func pointPrefix(dev device.Device, w device.Workload, spec Spec) memo.Prefix {
	s := dev.Spec()
	tag := "campaign-point/v1"
	if spec.ModelTrue {
		tag = "campaign-model-true/v1"
	}
	p := memo.NewPrefix(
		tag,
		dev.Name(), dev.Kind(), s.CatalogName,
		w.App, strconv.Itoa(w.N), strconv.Itoa(w.Products),
	)
	if spec.ModelTrue {
		return p
	}
	m := spec.Measure
	return p.WithTail(
		strconv.FormatInt(spec.Seed, 10),
		canonFloat(spec.NoiseFrac),
		canonFloat(spec.SpikeProb),
		canonFloat(m.Confidence),
		canonFloat(m.Precision),
		strconv.Itoa(m.MinRuns),
		strconv.Itoa(m.MaxRuns),
		strconv.FormatBool(m.CheckNormality),
		canonFloat(m.NormalityAlpha),
		canonFloat(m.RejectOutliersK),
	)
}

// canonFloat renders a float64 exactly (hex mantissa form), so two spec
// values digest equal iff they are bit-equal as measurement parameters.
func canonFloat(f float64) string {
	return strconv.FormatFloat(f, 'x', -1, 64)
}
