package cpusim

import (
	"fmt"

	"energyprop/internal/dense"
	"energyprop/internal/fft"
)

// fftComputePenalty is the FFT's per-flop cost relative to DGEMM:
// butterflies run at a lower fraction of peak than DGEMM kernels, which
// the engine's DGEMM-calibrated rate expresses as inflated flop shares.
const fftComputePenalty = 1 / 0.45

// RunFFT2DThreaded runs the 2D FFT as a configurable load-balanced
// threadgroup application through the same execution engine as the DGEMM
// — the second application family of the weak-EP study the paper's
// Section III builds on (Khokhriakov et al. analyzed both DGEMM and 2D
// FFT variants). Rows (then columns) are divided equally among the
// configuration's threads; the partition type changes the access pattern:
// the cyclic partition interleaves rows across threads, which costs TLB
// locality in the strided column pass. Like RunGEMM it fills and returns
// out (nil allocates), and a warm rerun is allocation-free.
func (m *Machine) RunFFT2DThreaded(n int, cfg dense.Config, out *Result) (*Result, error) {
	if n < 2 {
		return nil, fmt.Errorf("cpusim: FFT size %d must be >= 2", n)
	}
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	// Traffic character: the FFT's bytes-per-flop follows the cache
	// regimes of the strong-EP model.
	signalBytes := 16 * float64(n) * float64(n)
	l3 := float64(m.Spec.L3KB) * 1024
	traffic := 2 * signalBytes
	tlbFactor := 0.8
	if signalBytes > l3 {
		traffic = 4 * signalBytes
		if 16*float64(n) > 64*1024 {
			traffic *= 1.5
		}
		// The strided column pass touches one page per element row.
		tlbFactor = 2.2
	}
	if cfg.Partition == dense.PartitionCyclic {
		tlbFactor *= m.cal.cyclicTLBFactor
	}
	return m.runBalanced("fft2d", n, cfg, fft.Work(n), traffic, fftComputePenalty, tlbFactor, out)
}
