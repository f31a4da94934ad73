package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/store"
)

// chaosSpec is the retry-enabled spec every chaos campaign runs under:
// graceful degradation on and a generous deterministic retry budget.
func chaosSpec(seed int64, workers int, cache *PointCache) Spec {
	spec := DefaultSpec(seed)
	spec.Workers = workers
	spec.Cache = cache
	spec.Retry = fault.RetryPolicy{MaxAttempts: 10}
	spec.ContinueOnError = true
	return spec
}

// chaosRecord runs a campaign on the (possibly fault-wrapped) device and
// returns the serialized record with every Attempts field zeroed:
// attempts are provenance, not measurement, and differ by construction
// between faulty and fault-free campaigns.
func chaosRecord(t testing.TB, dev device.Device, w device.Workload, spec Spec) *store.CampaignRecord {
	t.Helper()
	res, err := runAll(dev, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := referenceRecord(t, res)
	for i := range rec.Results {
		rec.Results[i].Attempts = 0
	}
	for i := range rec.Failed {
		rec.Failed[i].Attempts = 0
	}
	return rec
}

// marshalRecord serializes a materialized record the way the indented
// store.CampaignWriter streams one, for byte comparison.
func marshalRecord(t testing.TB, rec *store.CampaignRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceRecord maps a materialized result to a validated store
// record as RecordSink maps the stream — measured energy with
// model-true time, the final error text (or "unknown error") for a
// failure — but computes each key and label from the configuration:
// the oracle streamed records are compared against.
func referenceRecord(t testing.TB, r *Result) *store.CampaignRecord {
	t.Helper()
	rec := &store.CampaignRecord{Version: store.FormatVersion, Device: r.Device, Kind: r.Kind, Workload: r.Workload}
	for _, p := range r.Points {
		rec.Results = append(rec.Results, store.MeasuredPoint{
			Config:     p.Config.Key(),
			Label:      p.Config.String(),
			Seconds:    p.TrueSeconds,
			DynPowerW:  p.MeasuredEnergyJ / p.TrueSeconds,
			DynEnergyJ: p.MeasuredEnergyJ,
			Attempts:   p.Attempts,
		})
	}
	for _, f := range r.Failed {
		msg := "unknown error"
		if f.Err != nil {
			msg = f.Err.Error()
		}
		rec.Failed = append(rec.Failed, store.FailedPoint{Config: f.Config.Key(), Label: f.Config.String(), Attempts: f.Attempts, Error: msg})
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// chaosBackends are the three backend kinds the invariant must hold on,
// with workloads small enough for tier-1.
func chaosBackends() []struct {
	name string
	w    device.Workload
} {
	return []struct {
		name string
		w    device.Workload
	}{
		{"p100", smallWorkload()},
		{"haswell", device.Workload{N: 48, Products: 1}},
		{"hetero", device.Workload{N: 256, Products: 3}},
	}
}

// TestChaosSurvivorsByteIdentical is the chaos harness's core invariant:
// under any injected fault schedule, every point that survives retries
// carries values byte-identical to the fault-free campaign — across
// serial, parallel, cache-cold, and cache-warm execution, on all three
// backend kinds. Faults fail loudly (transient errors, corrupt-sample
// detection) and retried measurements restart from the point's hashed
// seed, so recovery reproduces the clean bytes exactly.
func TestChaosSurvivorsByteIdentical(t *testing.T) {
	plan := fault.Plan{Seed: 97, Transient: 0.2, Drop: 0.08, Outlier: 0.07}
	for _, tc := range chaosBackends() {
		t.Run(tc.name, func(t *testing.T) {
			inner := openDev(t, tc.name)
			clean := chaosRecord(t, inner, tc.w, chaosSpec(31, 1, nil))
			cleanBytes := marshalRecord(t, clean)
			if len(clean.Failed) != 0 {
				t.Fatalf("fault-free campaign reported %d failures", len(clean.Failed))
			}

			cache := NewPointCache(0)
			runs := []struct {
				label string
				spec  Spec
			}{
				{"serial", chaosSpec(31, 1, nil)},
				{"parallel", chaosSpec(31, 8, nil)},
				{"cache-cold", chaosSpec(31, 4, cache)},
				{"cache-warm", chaosSpec(31, 4, cache)},
			}
			for _, run := range runs {
				injector, err := fault.Wrap(inner, plan)
				if err != nil {
					t.Fatal(err)
				}
				faulty := chaosRecord(t, injector, tc.w, run.spec)
				if s := injector.Stats(); s.Injected() == 0 && run.label != "cache-warm" {
					t.Errorf("%s: no faults injected — the chaos run is vacuous", run.label)
				}
				if len(faulty.Failed) != 0 {
					t.Errorf("%s: %d points failed despite the retry budget (first: %+v)",
						run.label, len(faulty.Failed), faulty.Failed[0])
				}
				if got := marshalRecord(t, faulty); !bytes.Equal(got, cleanBytes) {
					t.Errorf("%s: faulty-campaign survivors differ from the fault-free record\nclean:  %s\nfaulty: %s",
						run.label, cleanBytes, got)
				}
			}
		})
	}
}

// TestChaosDegradesGracefully drives a campaign with no retry budget so
// some points really fail, and checks the degraded record: survivors
// byte-identical to their fault-free twins, failures recorded with the
// final error, and Pareto analysis restricted to survivors.
func TestChaosDegradesGracefully(t *testing.T) {
	inner := openDev(t, "p100")
	w := smallWorkload()
	clean := chaosRecord(t, inner, w, chaosSpec(31, 1, nil))
	cleanByKey := make(map[string]store.MeasuredPoint, len(clean.Results))
	for _, p := range clean.Results {
		cleanByKey[p.Config] = p
	}

	plan := fault.Plan{Seed: 5, Transient: 0.35, Drop: 0.15}
	injector, err := fault.Wrap(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSpec(31)
	spec.Retry = fault.RetryPolicy{MaxAttempts: 1}
	spec.ContinueOnError = true
	res, err := runAll(injector, w, spec)
	if err != nil {
		t.Fatalf("degrading campaign aborted: %v", err)
	}
	if len(res.Failed) == 0 {
		t.Fatal("no failures under transient=0.35 with a single attempt — chaos run is vacuous")
	}
	if len(res.Points) == 0 {
		t.Fatal("no survivors — cannot check survivor identity")
	}
	for _, p := range res.Points {
		want, ok := cleanByKey[p.Config.Key()]
		if !ok {
			t.Fatalf("survivor %s missing from clean campaign", p.Config.Key())
		}
		if math.Float64bits(p.MeasuredEnergyJ) != math.Float64bits(want.DynEnergyJ) ||
			math.Float64bits(p.TrueSeconds) != math.Float64bits(want.Seconds) {
			t.Errorf("survivor %s differs from fault-free value: got (%v s, %v J), want (%v s, %v J)",
				p.Config.Key(), p.TrueSeconds, p.MeasuredEnergyJ, want.Seconds, want.DynEnergyJ)
		}
		if p.Attempts != 1 {
			t.Errorf("survivor %s has %d attempts under a 1-attempt budget", p.Config.Key(), p.Attempts)
		}
	}
	for _, f := range res.Failed {
		if f.Err == nil {
			t.Errorf("failed point %s has nil error", f.Config.Key())
		}
		if f.Attempts != 1 {
			t.Errorf("failed point %s burned %d attempts under a 1-attempt budget", f.Config.Key(), f.Attempts)
		}
	}
	rec := referenceRecord(t, res)
	if len(rec.Points()) != len(res.Points) {
		t.Errorf("Pareto points cover %d entries, want the %d survivors", len(rec.Points()), len(res.Points))
	}
}

// chaosSeedCase is one committed fault schedule in the regression corpus.
type chaosSeedCase struct {
	Name     string `json:"name"`
	Device   string `json:"device"`
	App      string `json:"app"`
	N        int    `json:"n"`
	Products int    `json:"products"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	Attempts int    `json:"attempts"`
	Faults   string `json:"faults"`
}

// TestChaosRegressionSeeds replays the committed corpus of fault
// schedules (testdata/chaos_seeds.json): schedules that once exposed
// bugs — or probe edge regions like all-faults-one-class, high
// latency, or mixed classes — must keep producing survivors that are
// byte-identical to the fault-free campaign.
func TestChaosRegressionSeeds(t *testing.T) {
	raw, err := os.ReadFile("testdata/chaos_seeds.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []chaosSeedCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("corrupt chaos corpus: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("empty chaos corpus")
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			plan, err := fault.ParsePlan(tc.Faults)
			if err != nil {
				t.Fatalf("corpus case %q has a bad plan: %v", tc.Name, err)
			}
			inner := openDev(t, tc.Device)
			w := device.Workload{App: tc.App, N: tc.N, Products: tc.Products}.Normalized()

			cleanSpec := DefaultSpec(tc.Seed)
			cleanSpec.Workers = tc.Workers
			clean := chaosRecord(t, inner, w, cleanSpec)
			cleanBytes := marshalRecord(t, clean)

			injector, err := fault.Wrap(inner, plan)
			if err != nil {
				t.Fatal(err)
			}
			spec := DefaultSpec(tc.Seed)
			spec.Workers = tc.Workers
			spec.Retry = fault.RetryPolicy{MaxAttempts: tc.Attempts}
			spec.ContinueOnError = true
			faulty := chaosRecord(t, injector, w, spec)
			if injector.Stats().Runs == 0 {
				t.Fatal("injector saw no runs")
			}
			// Failed points are allowed (some corpus schedules are meant to
			// exhaust the budget); survivors must still match the clean
			// record point-for-point.
			cleanByKey := make(map[string]store.MeasuredPoint, len(clean.Results))
			for _, p := range clean.Results {
				cleanByKey[p.Config] = p
			}
			for _, p := range faulty.Results {
				want, ok := cleanByKey[p.Config]
				if !ok {
					t.Fatalf("survivor %s missing from clean campaign", p.Config)
				}
				if math.Float64bits(p.DynEnergyJ) != math.Float64bits(want.DynEnergyJ) ||
					math.Float64bits(p.Seconds) != math.Float64bits(want.Seconds) ||
					math.Float64bits(p.DynPowerW) != math.Float64bits(want.DynPowerW) {
					t.Errorf("survivor %s differs from fault-free value", p.Config)
				}
			}
			if len(faulty.Failed) == 0 {
				// Full survival must mean full byte identity.
				if got := marshalRecord(t, faulty); !bytes.Equal(got, cleanBytes) {
					t.Errorf("full-survival record differs from fault-free record\nclean:  %s\nfaulty: %s", cleanBytes, got)
				}
			}
		})
	}
}

// BenchmarkFaultedSweepCold is a cold haswell campaign under the chaos
// harness's fault plan: every attempt draws its fault class from a
// generator seeded per (configuration, attempt), so the cost of those
// draws shows beside the measurement they guard.
func BenchmarkFaultedSweepCold(b *testing.B) {
	inner := openDev(b, "haswell")
	w := device.Workload{N: 1024, Products: 1}
	plan := fault.Plan{Seed: 97, Transient: 0.2, Drop: 0.08, Outlier: 0.07}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		injector, err := fault.Wrap(inner, plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runAll(injector, w, chaosSpec(int64(i), 1, nil)); err != nil {
			b.Fatal(err)
		}
	}
}
