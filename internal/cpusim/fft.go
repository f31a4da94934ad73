package cpusim

import (
	"fmt"
	"math"

	"energyprop/internal/fft"
)

// RunFFT2D models the multithreaded 2D FFT (one thread per core, workload
// divided equally, no communication) whose dynamic energy the paper's
// Fig 1 plots against work. The model's cache and TLB regimes are what
// bend E_d(W) away from linearity:
//
//   - the signal fits in L3 (traffic cheap) or spills to DRAM;
//   - the strided column pass thrashes the dTLB once a row of the signal
//     exceeds the TLB reach, switching the page-walk component on;
//   - odd log₂N sizes pay an extra radix-2 pass.
//
// The result is one point of the strong-EP study (Fig 1) on the CPU: the
// MKL-style 2D DFT of an N×N complex signal under the paper's work model
// W = 5·N²·log₂N.
func (m *Machine) RunFFT2D(n, threads int) (*Result, error) {
	if n < 2 {
		return nil, fmt.Errorf("cpusim: FFT size %d must be >= 2", n)
	}
	if threads < 1 || threads > m.Spec.LogicalCores() {
		return nil, fmt.Errorf("cpusim: threads=%d out of 1..%d", threads, m.Spec.LogicalCores())
	}
	spec, cal := m.Spec, &m.cal
	work := fft.Work(n)
	signalBytes := 16 * float64(n) * float64(n)
	l3 := float64(spec.L3KB) * 1024

	// Traffic: two passes, read+write each, unless L3-resident.
	var traffic float64
	if signalBytes <= l3 {
		traffic = 2 * signalBytes
	} else {
		traffic = 4 * signalBytes
		// Strided column pass loses spatial locality for wide rows.
		if 16*float64(n) > 64*1024 {
			traffic *= 1.5
		}
	}

	// Compute arm: FFT butterflies run at a fraction of DGEMM throughput.
	radixEff := 1.0
	if n >= 2 && int(math.Round(math.Log2(float64(n))))%2 == 1 {
		radixEff = 0.92
	}
	fill := math.Min(1, float64(n)/256) // small transforms underuse SIMD
	computeArm := float64(threads) * cal.perThreadGFLOPs * 0.45 * (0.3 + 0.7*fill)
	if threads > spec.PhysicalCores() {
		// Hyperthread siblings share pipelines.
		over := threads - spec.PhysicalCores()
		computeArm = (float64(spec.PhysicalCores()-over) +
			float64(over)*cal.htCombinedFactor) * cal.perThreadGFLOPs * 0.45
	}
	ai := work / traffic
	memArm := spec.MemBandwidthGBs * ai
	// The radix sawtooth applies to the whole pipeline (extra pass over
	// the data for odd log₂N), whichever arm binds.
	perf := math.Min(computeArm, memArm) * radixEff
	seconds := work / (perf * 1e9)

	// Power: active cores follow the EP model; dTLB switches on when the
	// column pass exceeds TLB reach (64 entries × 2 MB huge pages ≈ 128 MB
	// here modeled via row count vs TLB capacity).
	activeCores := math.Min(float64(threads), float64(spec.LogicalCores()))
	corePower := spec.CorePowerW * activeCores * math.Min(1, perf/computeArm)
	uncore := spec.UncorePowerW * float64(spec.Sockets) * cal.uncoreFloor
	tlbPower := 0.0
	if signalBytes > l3 && float64(n)*16 > 4096 {
		// Each column touches n distinct pages; page-walk activity
		// saturates quickly.
		pageRate := float64(n) * float64(n) / seconds / 16
		tlbPower = spec.DTLBPowerW * math.Min(1, pageRate/cal.tlbPagesPerSecondCapacity)
	}
	power := corePower + uncore + tlbPower
	return &Result{
		App:        GEMMApp{N: n},
		AppName:    "fft2d",
		Work:       work,
		Seconds:    seconds,
		GFLOPs:     perf,
		DynPowerW:  power,
		DynEnergyJ: power * seconds,
	}, nil
}
