package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"energyprop/internal/device"
	"energyprop/internal/policy"
	"energyprop/internal/store"
)

// TestSeedIndependentOfConfigOrder is the regression test for the
// order-dependent seeding bug: the historical scheme seeded each meter
// as spec.Seed + i*7919, so reordering the configuration list changed
// every measured value. Seeds now hash the configuration's canonical key
// (device.ConfigSeed) — shuffling the sweep order must leave each
// config's measured energy bit-identical. Run on both a GPU and a CPU
// backend: the contract is device-generic.
func TestSeedIndependentOfConfigOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    device.Workload
	}{
		{"p100", smallWorkload()},
		{"haswell", device.Workload{N: 48, Products: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := openDev(t, tc.name)
			configs, err := dev.Configs(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			spec := DefaultSpec(21)
			spec.Workers = 1 // isolate ordering from parallelism

			canonical, err := RunConfigs(context.Background(), dev, tc.w, configs, spec)
			if err != nil {
				t.Fatal(err)
			}
			shuffled := append([]device.Config(nil), configs...)
			rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			if shuffled[0] == configs[0] && shuffled[1] == configs[1] {
				t.Fatal("shuffle left the order unchanged; pick another shuffle seed")
			}
			reordered, err := RunConfigs(context.Background(), dev, tc.w, shuffled, spec)
			if err != nil {
				t.Fatal(err)
			}

			byConfig := make(map[string]PointReport, len(reordered.Points))
			for _, p := range reordered.Points {
				byConfig[p.Config.Key()] = p
			}
			for _, p := range canonical.Points {
				q, ok := byConfig[p.Config.Key()]
				if !ok {
					t.Fatalf("config %v missing from shuffled run", p.Config)
				}
				if p.MeasuredEnergyJ != q.MeasuredEnergyJ || p.Runs != q.Runs || p.HalfWidthJ != q.HalfWidthJ {
					t.Errorf("%v: canonical (%.6f J, %d runs) vs shuffled (%.6f J, %d runs) — seeding is order-dependent",
						p.Config, p.MeasuredEnergyJ, p.Runs, q.MeasuredEnergyJ, q.Runs)
				}
			}
		})
	}
}

// TestSerialParallelByteIdentical is the engine's determinism contract:
// on every backend kind — GPU, CPU, and the heterogeneous ensemble — a
// 1-worker campaign and an 8-worker campaign must serialize to
// byte-identical store.CampaignRecord JSON, with points in canonical
// enumeration order.
func TestSerialParallelByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  string
		w    device.Workload
	}{
		{"k40c", "k40c", smallWorkload()},
		{"p100", "p100", smallWorkload()},
		{"haswell", "haswell", device.Workload{N: 48, Products: 1}},
		{"hetero", "hetero", device.Workload{N: 256, Products: 3}},
		// The bandwidth-bound families ride the same contract: their
		// configuration spaces (lanes, tiles, the compound's single
		// point) enumerate and seed exactly like the dense knobs.
		{"p100-spmv", "p100", device.Workload{App: device.AppSpMV, N: 2048, Products: 1}},
		{"k40c-stencil", "k40c", device.Workload{App: device.AppStencil, N: 128, Products: 1}},
		{"haswell-stencil", "haswell", device.Workload{App: device.AppStencil, N: 64, Products: 1}},
		{"hetero-compound", "hetero", device.Workload{App: device.AppCompound, N: 256, Products: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := openDev(t, tc.dev)
			recordWith := func(workers int) []byte {
				spec := DefaultSpec(31)
				spec.Workers = workers
				return streamRecordBytes(t, dev, tc.w, spec)
			}
			serial := recordWith(1)
			parallel := recordWith(8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("1-worker and 8-worker records differ:\nserial:   %s\nparallel: %s", serial, parallel)
			}
			// The points must also round-trip through JSON in canonical
			// enumeration order.
			var rec store.CampaignRecord
			if err := json.Unmarshal(parallel, &rec); err != nil {
				t.Fatal(err)
			}
			configs, err := dev.Configs(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Results) != len(configs) {
				t.Fatalf("%d results, want %d", len(rec.Results), len(configs))
			}
			for i, c := range configs {
				if rec.Results[i].Config != c.Key() {
					t.Fatalf("result %d is %q, want canonical %q", i, rec.Results[i].Config, c.Key())
				}
			}
		})
	}
}

// TestCPUShuffledCampaignByteIdentical is the cross-backend determinism
// guarantee in one assertion: on the CPU adapter, serial, parallel, and
// shuffled-then-restored campaigns must produce byte-identical records.
func TestCPUShuffledCampaignByteIdentical(t *testing.T) {
	dev := openDev(t, "haswell")
	w := device.Workload{N: 96, Products: 2}
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	runAs := func(order []device.Config, workers int) []byte {
		spec := DefaultSpec(47)
		spec.Workers = workers
		res, err := RunConfigs(context.Background(), dev, w, order, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Restore canonical order by key so the serialized bytes are
		// comparable across orderings.
		byKey := make(map[string]PointReport, len(res.Points))
		for _, p := range res.Points {
			byKey[p.Config.Key()] = p
		}
		ordered := &Result{Device: res.Device, Kind: res.Kind, Workload: res.Workload}
		for _, c := range configs {
			ordered.Points = append(ordered.Points, byKey[c.Key()])
		}
		return marshalRecord(t, referenceRecord(t, ordered))
	}
	shuffled := append([]device.Config(nil), configs...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	serial := runAs(configs, 1)
	parallel := runAs(configs, 6)
	reordered := runAs(shuffled, 6)
	if !bytes.Equal(serial, parallel) {
		t.Error("serial and parallel CPU campaigns differ")
	}
	if !bytes.Equal(serial, reordered) {
		t.Error("canonical and shuffled CPU campaigns differ")
	}
}

// TestPolicyCampaignByteIdentical: wrapping a device under an energy
// policy changes what a point measures, not how the engine schedules it.
// Serial, parallel, and shuffled-then-restored campaigns over the policy
// × configuration cross product must be byte-identical on every backend
// kind — each policy point's seed hashes its full "pol=…" key, so
// neither worker count nor enumeration order can leak into a record.
func TestPolicyCampaignByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  string
		w    device.Workload
	}{
		{"p100-spmv", "p100", device.Workload{App: device.AppSpMV, N: 2048, Products: 1}},
		{"haswell-stencil", "haswell", device.Workload{App: device.AppStencil, N: 64, Products: 1}},
		{"hetero-compound", "hetero", device.Workload{App: device.AppCompound, N: 256, Products: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := policy.Wrap(openDev(t, tc.dev), policy.Options{Slack: 1.7, FloorFrac: 0.35})
			if err != nil {
				t.Fatal(err)
			}
			configs, err := dev.Configs(tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if len(configs) < 2 {
				t.Fatalf("policy space too small to exercise ordering (%d configs)", len(configs))
			}
			runAs := func(order []device.Config, workers int) []byte {
				spec := DefaultSpec(53)
				spec.Workers = workers
				res, err := RunConfigs(context.Background(), dev, tc.w, order, spec)
				if err != nil {
					t.Fatal(err)
				}
				byKey := make(map[string]PointReport, len(res.Points))
				for _, p := range res.Points {
					byKey[p.Config.Key()] = p
				}
				ordered := &Result{Device: res.Device, Kind: res.Kind, Workload: res.Workload}
				for _, c := range configs {
					ordered.Points = append(ordered.Points, byKey[c.Key()])
				}
				return marshalRecord(t, referenceRecord(t, ordered))
			}
			shuffled := append([]device.Config(nil), configs...)
			rand.New(rand.NewSource(13)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			serial := runAs(configs, 1)
			parallel := runAs(configs, 8)
			reordered := runAs(shuffled, 8)
			if !bytes.Equal(serial, parallel) {
				t.Error("serial and parallel policy campaigns differ")
			}
			if !bytes.Equal(serial, reordered) {
				t.Error("canonical and shuffled policy campaigns differ")
			}
		})
	}
}

func TestRunConfigsValidation(t *testing.T) {
	dev := openDev(t, "p100")
	if _, err := RunConfigs(context.Background(), nil, smallWorkload(), nil, DefaultSpec(1)); err == nil {
		t.Error("nil device: want error")
	}
	if _, err := RunConfigs(context.Background(), dev, smallWorkload(), nil, DefaultSpec(1)); err == nil {
		t.Error("empty config list: want error")
	}
	cpu := openDev(t, "haswell")
	foreign, err := cpu.Configs(device.Workload{N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConfigs(context.Background(), dev, smallWorkload(), foreign[:1], DefaultSpec(1)); err == nil {
		t.Error("foreign config: want error")
	}
}

// TestRunContextCancellation: a campaign run under a cancelled context
// stops before measuring and reports ctx.Err().
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dev, w := openDev(t, "p100"), smallWorkload()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunConfigs(ctx, dev, w, configs, DefaultSpec(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressReportsEveryConfig: the progress callback takes no lock
// of its own — the job serializes it, so under -race an overlap would
// be a reported data race — and sees the counts 1..n in strict order.
func TestProgressReportsEveryConfig(t *testing.T) {
	dev := openDev(t, "p100")
	w := smallWorkload()
	configs, err := dev.Configs(w)
	if err != nil {
		t.Fatal(err)
	}
	var dones []int
	spec := DefaultSpec(17)
	spec.Executor = scrambledExecutor
	spec.Progress = func(done, total int) {
		if total != len(configs) {
			t.Errorf("total = %d, want %d", total, len(configs))
		}
		dones = append(dones, done)
	}
	if _, err := runAll(dev, w, spec); err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(configs) {
		t.Fatalf("%d progress calls, want %d", len(dones), len(configs))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress counts %v, want 1..%d in order", dones, len(configs))
		}
	}
}

// BenchmarkParallelSweep measures the full campaign hot path (traced
// runs, noisy meter, confidence-loop repetition for every configuration)
// at increasing worker counts. The configurations are independent, so on
// a multi-core host throughput scales with workers until GOMAXPROCS is
// saturated; compare the workers=1 and workers=8 lines for the speedup.
func BenchmarkParallelSweep(b *testing.B) {
	dev := openDev(b, "p100")
	w := device.Workload{N: 10240, Products: 8}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := DefaultSpec(1)
			spec.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runAll(dev, w, spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Points) == 0 {
					b.Fatal("empty campaign")
				}
			}
		})
	}
}
