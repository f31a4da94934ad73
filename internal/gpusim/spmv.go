package gpusim

import (
	"fmt"
	"math"

	"energyprop/internal/workload"
)

// SpMV decision variable: the CSR-vector lane count — how many threads
// of a warp cooperate on one matrix row. One lane per row (CSR-scalar)
// leaves the matrix stream uncoalesced; a full warp per row wastes lanes
// whenever the row is shorter than the warp. The classic SpMV tuning
// knob, and the family's whole configuration space: CUSPARSE-style
// kernels expose nothing else at launch.
var spmvLaneSpace = []int{1, 2, 4, 8, 16, 32}

// DefaultSpMVLanes is the canonical lane count mid-space — what the
// compound application and the hetero ensemble run the family at.
const DefaultSpMVLanes = 8

// SpMVLaneSpace returns the family's lane space in increasing order.
// Callers receive a fresh copy they may reorder.
func SpMVLaneSpace() []int {
	return append([]int(nil), spmvLaneSpace...)
}

// ValidSpMVLanes reports whether lanes is a point of the lane space.
func ValidSpMVLanes(lanes int) bool {
	for _, l := range spmvLaneSpace {
		if l == lanes {
			return true
		}
	}
	return false
}

// RunSpMV models a CSR-vector SpMV kernel with the given lane count: y =
// A·x over the synthetic banded CSR matrix of internal/workload.
// The model is memory-side: the CSR stream (values + column indices) is
// compulsory DRAM traffic whose coalescing improves with the lane
// count, the x gather hits L2 while the vector fits, and lanes beyond
// the row length are pure waste. Dynamic power is dominated by the
// memory system, with an issue-activity term that grows with the lane
// count — which is what spreads the family's points into a real
// time/energy trade-off.
func (d *Device) RunSpMV(n, lanes int) (*Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("gpusim: SpMV size %d must be >= 1", n)
	}
	if !ValidSpMVLanes(lanes) {
		return nil, fmt.Errorf("gpusim: SpMV lanes %d not in %v", lanes, spmvLaneSpace)
	}
	spec := d.Spec
	work := workload.SpMVFlops(n)
	nnz := workload.SpMVNNZ(n)
	nnzPerRow := float64(workload.SpMVNNZPerRow(n))

	// Traffic: the CSR stream and the y write always move; the x gather
	// stays an L2 hit while the vector fits, and otherwise re-reads ~60%
	// of the touched lines.
	l2 := float64(spec.L2KB) * 1024
	xBytes := 8 * float64(n)
	traffic := 12*nnz + 8*float64(n)
	if xBytes > l2 {
		traffic += 0.6 * 8 * nnz
	}

	// Coalescing: L lanes read L consecutive CSR elements per step; 8+
	// lanes fill 32-byte DRAM segments. Lanes beyond the row length sit
	// idle and shrink the useful fraction of every fetched segment.
	coalesce := 0.25 + 0.75*math.Min(1, float64(lanes)/8)
	util := math.Min(1, nnzPerRow/float64(lanes))
	effBW := spec.MemBandwidthGBs * coalesce * (0.4 + 0.6*util)

	// Small matrices cannot fill the device's warp slots.
	fill := math.Min(1, float64(n)*float64(lanes)/(48*1024))
	effBW *= 0.25 + 0.75*fill

	memSeconds := traffic / (effBW * 1e9)
	computeSeconds := work / (0.06 * spec.PeakGFLOPsFP64 * 1e9)
	seconds := math.Max(memSeconds, computeSeconds)

	perf := work / seconds
	uMem := math.Min(1, (traffic/seconds)/(spec.MemBandwidthGBs*1e9))
	uPipes := perf / 1e9 / spec.PeakGFLOPsFP64
	// Issue/replay activity grows with cooperating lanes even when the
	// kernel is memory-bound: more active warps per row, more shuffles
	// for the per-row reduction.
	issue := 0.012 * float64(lanes)
	power := spec.BasePowerW + spec.ComputePowerW*(uPipes*1.2+issue) + spec.MemPowerW*uMem
	return kernelResult(n, work, seconds, power), nil
}
