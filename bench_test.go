// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact, backed by the same runners as cmd/epstudy), plus
// micro-benchmarks of the core computational kernels. Run with:
//
//	go test -bench=. -benchmem
package energyprop_test

import (
	"testing"

	"energyprop"
	"energyprop/internal/dense"
	"energyprop/internal/experiment"
	"energyprop/internal/fft"
	"energyprop/internal/gpusim"
)

// benchExperiment runs a registered experiment once per iteration in
// Quick mode (identical qualitative output, smaller sweeps).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := experiment.Options{Seed: 1, Quick: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkTable1Catalog(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig1StrongEP(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig2P100Sweep(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3Decomposition(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4CPUUtilization(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5KernelModel(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6Additivity(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7K40c(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8P100(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkSummarySavings(b *testing.B)     { benchExperiment(b, "summary") }
func BenchmarkTheoremTwoCore(b *testing.B)     { benchExperiment(b, "theory") }
func BenchmarkMethodology(b *testing.B)        { benchExperiment(b, "methodology") }
func BenchmarkAblation(b *testing.B)           { benchExperiment(b, "ablation") }
func BenchmarkDVFSComparison(b *testing.B)     { benchExperiment(b, "dvfs") }
func BenchmarkCPUEnergyModel(b *testing.B)     { benchExperiment(b, "cpumodel") }
func BenchmarkMeasuredCampaign(b *testing.B)   { benchExperiment(b, "campaign") }
func BenchmarkLibraryBaseline(b *testing.B)    { benchExperiment(b, "baseline") }
func BenchmarkAdaptiveSearch(b *testing.B)     { benchExperiment(b, "search") }
func BenchmarkCPUFFTWeakEP(b *testing.B)       { benchExperiment(b, "cpufft") }
func BenchmarkGPUEnergyModel(b *testing.B)     { benchExperiment(b, "gpumodel") }
func BenchmarkSchedulerPolicies(b *testing.B)  { benchExperiment(b, "scheduler") }
func BenchmarkSensitivity(b *testing.B)        { benchExperiment(b, "sensitivity") }
func BenchmarkFig4Points(b *testing.B)         { benchExperiment(b, "fig4points") }
func BenchmarkRelatedWork(b *testing.B)        { benchExperiment(b, "relatedwork") }

// Micro-benchmarks of the real computational substrates.

func BenchmarkGemmBlockedPacked256(b *testing.B) { benchGemm(b, dense.VariantPacked, 256) }
func BenchmarkGemmBlockedTiled256(b *testing.B)  { benchGemm(b, dense.VariantTiled, 256) }

func benchGemm(b *testing.B, v dense.Variant, n int) {
	b.Helper()
	a := dense.MustMatrix(n, n)
	bb := dense.MustMatrix(n, n)
	c := dense.MustMatrix(n, n)
	a.FillRandom(1)
	bb.FillRandom(2)
	b.SetBytes(int64(3 * n * n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dense.GemmBlocked(v, 1, a, bb, 0, c, 0, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGemmSharedKernelBS16(b *testing.B) {
	n := 192
	a := dense.MustMatrix(n, n)
	bb := dense.MustMatrix(n, n)
	a.FillRandom(1)
	bb.FillRandom(2)
	b.SetBytes(int64(3 * n * n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := dense.MustMatrix(n, n)
		if err := dense.GemmSharedKernel(16, a, bb, c, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelGemm256x8Threads(b *testing.B) {
	n := 256
	a := dense.MustMatrix(n, n)
	bb := dense.MustMatrix(n, n)
	c := dense.MustMatrix(n, n)
	a.FillRandom(1)
	bb.FillRandom(2)
	cfg := dense.Config{Groups: 2, ThreadsPerGroup: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dense.ParallelGemm(cfg, dense.VariantPacked, 1, a, bb, 0, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT2D256x4Threads(b *testing.B) {
	s, err := fft.NewSignal2D(256)
	if err != nil {
		b.Fatal(err)
	}
	for i := range s.Data {
		s.Data[i] = complex(float64(i%7), float64(i%3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := s.Clone()
		if err := fft.FFT2D(work, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPUSweepP100(b *testing.B) {
	dev := gpusim.NewP100()
	w := gpusim.MatMulWorkload{N: 10240, Products: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Sweep(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracedScheduleP100(b *testing.B) {
	dev := gpusim.NewP100()
	w := gpusim.MatMulWorkload{N: 8192, Products: 8}
	c := gpusim.MatMulConfig{BS: 24, G: 1, R: 8}
	// One run first fills the scheduler's scratch pool, so even a
	// one-iteration run counts only a warm run's allocations.
	if _, err := dev.RunMatMulTraced(w, c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.RunMatMulTraced(w, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParetoFront110Configs(b *testing.B) {
	dev := gpusim.NewP100()
	sweep, err := dev.Sweep(gpusim.MatMulWorkload{N: 10240, Products: 8})
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]energyprop.Point, len(sweep))
	for i, r := range sweep {
		pts[i] = energyprop.Point{Label: r.Config.String(), Time: r.Seconds, Energy: r.DynEnergyJ}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if front := energyprop.Front(pts); len(front) == 0 {
			b.Fatal("empty front")
		}
	}
}
