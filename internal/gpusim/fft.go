package gpusim

import (
	"fmt"
	"math"

	"energyprop/internal/fft"
)

// RunFFT2D models a CUFFT-style 2D transform of an N×N complex signal.
// The model's regimes are what make dynamic energy a "complex non-linear
// function of work" (the paper's Fig 1 finding): the signal fitting or
// spilling the L2 cache, a strided column pass whose coalescing efficiency
// degrades for wide rows, and radix efficiency differing between even and
// odd log₂N stages. The result is one point of the strong-EP study
// (Fig 1), with the paper's work model W = 5·N²·log₂N.
func (d *Device) RunFFT2D(n int) (*Result, error) {
	if n < 2 {
		return nil, fmt.Errorf("gpusim: FFT size %d must be >= 2", n)
	}
	spec := d.Spec
	work := fft.Work(n)
	signalBytes := 16 * float64(n) * float64(n)

	// Traffic model: two passes (rows, columns), each read+write, unless
	// the whole signal stays L2-resident.
	l2 := float64(spec.L2KB) * 1024
	var traffic float64
	switch {
	case signalBytes <= l2:
		traffic = 2 * signalBytes // single load + final store
	default:
		traffic = 4 * signalBytes
		// Strided column pass: coalescing degrades once a row exceeds the
		// L2 per-slice working set; model a 60% traffic inflation.
		if 16*float64(n) > l2/64 {
			traffic *= 1.6
		}
	}

	ai := work / traffic
	// Radix efficiency: power-of-two stages alternate radix-4/radix-2;
	// odd log₂N sizes pay an extra radix-2 pass.
	radixEff := 1.0
	if int(math.Round(math.Log2(float64(n))))%2 == 1 {
		radixEff = 0.93
	}
	computeArm := 0.30 * spec.PeakGFLOPsFP64 * radixEff
	memArm := spec.MemBandwidthGBs * ai
	perf := math.Min(computeArm, memArm)
	// Small transforms cannot fill the device.
	fill := math.Min(1, float64(n)*float64(n)/(64*1024))
	perf *= 0.25 + 0.75*fill
	seconds := work / (perf * 1e9)

	uPipes := perf / spec.PeakGFLOPsFP64
	uMem := math.Min(1, perf/memArm)
	power := spec.BasePowerW + spec.ComputePowerW*uPipes*1.1 + spec.MemPowerW*uMem
	return kernelResult(n, work, seconds, power), nil
}
