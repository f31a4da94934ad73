package device

import (
	"context"
	"testing"
)

// BenchmarkGPUTracedSweep is the device-model share of a cold GPU sweep:
// every (BS, G, R) configuration of the paper's p100 N=10240 ×8 workload
// run once through the block scheduler, the cost a memo miss pays per
// point before metering. Its allocs/op is budgeted in BENCH_BUDGET.json.
func BenchmarkGPUTracedSweep(b *testing.B) {
	dev, err := Open("p100")
	if err != nil {
		b.Fatal(err)
	}
	w := Workload{N: 10240, Products: 8}
	configs, err := dev.Configs(w)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range configs {
			if _, err := dev.Run(ctx, w, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}
