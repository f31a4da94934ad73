package cpusim

import (
	"fmt"

	"energyprop/internal/dense"
	"energyprop/internal/workload"
)

// This file holds the bandwidth-bound application families — CSR SpMV
// and the 5-point stencil sweep — as configurable load-balanced
// threadgroup applications through the same execution engine as the
// DGEMM and the threaded FFT. Both run far below the machines' roofline
// ridge: their time is set by the memory system, which is exactly the
// structural contrast to the compute-bound families the weak-EP study
// was built on.

// spmvComputePenalty expresses SpMV's per-flop cost relative to the
// engine's DGEMM-calibrated rate: indexed loads, short dependent chains,
// and no register blocking put sparse kernels near 20% of dense
// throughput even when operands are cached.
const spmvComputePenalty = 1 / 0.20

// stencilComputePenalty is the stencil's per-flop cost relative to
// DGEMM: streaming adds with a short reuse window reach roughly a third
// of dense throughput.
const stencilComputePenalty = 1 / 0.35

// RunSpMVThreaded runs y = A·x over the synthetic banded CSR matrix as
// a threadgroup application: rows divide equally among the
// configuration's threads. The matrix stream (values + indices) always
// comes from DRAM; the x-vector gather is cheap while x fits the shared
// L3 and inflates traffic once it spills. The cyclic partition
// interleaves rows across threads, which costs x-locality inside the
// band and extra page walks. Like RunGEMM it fills and returns out (nil
// allocates).
func (m *Machine) RunSpMVThreaded(n int, cfg dense.Config, out *Result) (*Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("cpusim: SpMV size %d must be >= 1", n)
	}
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	cal := &m.cal

	// Traffic character: the CSR stream is compulsory DRAM traffic; the
	// x gather adds one cached access per nonzero that turns into real
	// traffic once x (8n bytes) spills the L3.
	l3 := float64(m.Spec.L3KB) * 1024
	traffic := workload.SpMVBytes(n)
	xBytes := 8 * float64(n)
	tlbFactor := 1.2
	if xBytes > l3 {
		// The banded gather touches x pages far apart between rows.
		traffic += 0.5 * 8 * workload.SpMVNNZ(n)
		tlbFactor = 2.6
	}
	if cfg.Partition == dense.PartitionCyclic {
		// Interleaved rows break the band's x reuse between neighbor
		// rows and double the page-walk pressure of the gather.
		traffic *= cal.cyclicTrafficFactor
		tlbFactor *= cal.cyclicTLBFactor
	}
	return m.runBalanced("spmv", n, cfg, workload.SpMVFlops(n), traffic, spmvComputePenalty, tlbFactor, out)
}

// RunStencilThreaded runs one 5-point Jacobi sweep over an n×n grid as
// a threadgroup application: grid rows divide equally among the
// configuration's threads. A contiguous partition streams three source
// rows per destination row with near-perfect reuse; the cyclic
// partition hands adjacent rows to different threads, so every thread
// refetches its halo rows. Like RunGEMM it fills and returns out (nil
// allocates).
func (m *Machine) RunStencilThreaded(n int, cfg dense.Config, out *Result) (*Result, error) {
	if n < 3 {
		return nil, fmt.Errorf("cpusim: stencil grid %d must be >= 3", n)
	}
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	cal := &m.cal
	threads := cfg.Threads()

	// Traffic character: read + write per cell while three grid rows
	// (24n bytes) fit the per-thread share of the L3; past that the
	// neighbor rows stream from DRAM again.
	l3 := float64(m.Spec.L3KB) * 1024
	traffic := workload.StencilBytes(n)
	tlbFactor := 0.6 // streaming rows walk pages in order
	if 24*float64(n) > l3/float64(threads) {
		traffic = 2 * traffic // re-read north and south rows
		tlbFactor = 1.1
	}
	if cfg.Partition == dense.PartitionCyclic {
		// Interleaved rows duplicate every halo row between threads.
		traffic *= cal.cyclicTrafficFactor
		tlbFactor *= cal.cyclicTLBFactor
	}
	return m.runBalanced("stencil", n, cfg, workload.StencilFlops(n), traffic, stencilComputePenalty, tlbFactor, out)
}
