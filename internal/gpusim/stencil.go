package gpusim

import (
	"fmt"
	"math"

	"energyprop/internal/workload"
)

// Stencil decision variable: the square shared-memory tile edge. Small
// tiles pay halo overhead (the (T+2)² staging region around every T×T
// tile); the largest tile squeezes occupancy through its shared-memory
// footprint. That tension is the family's configuration space.
var stencilTileSpace = []int{8, 16, 32}

// DefaultStencilTile is the canonical tile — what the compound
// application and the hetero ensemble run the family at.
const DefaultStencilTile = 16

// StencilTileSpace returns the family's tile space in increasing order.
// Callers receive a fresh copy they may reorder.
func StencilTileSpace() []int {
	return append([]int(nil), stencilTileSpace...)
}

// ValidStencilTile reports whether tile is a point of the tile space.
func ValidStencilTile(tile int) bool {
	for _, t := range stencilTileSpace {
		if t == tile {
			return true
		}
	}
	return false
}

// RunStencil models a shared-memory tiled 5-point Jacobi sweep over an
// n×n grid. The
// model is memory-side: each tile stages a (T+2)² halo region, so
// smaller tiles inflate traffic; wider tiles coalesce better but the
// 32-wide tile's shared footprint caps resident blocks per SM. Like the
// other bandwidth-bound family, dynamic power follows memory activity.
func (d *Device) RunStencil(n, tile int) (*Result, error) {
	if !ValidStencilTile(tile) {
		return nil, fmt.Errorf("gpusim: stencil tile %d not in %v", tile, stencilTileSpace)
	}
	if n < tile {
		return nil, fmt.Errorf("gpusim: stencil grid %d smaller than tile %d", n, tile)
	}
	spec := d.Spec
	work := workload.StencilFlops(n)

	// Traffic: read + write per cell, inflated by the halo of every
	// staged tile.
	t := float64(tile)
	halo := (t + 2) * (t + 2) / (t * t)
	traffic := workload.StencilBytes(n) * (1 + halo) / 2

	// Coalescing follows the tile row width; occupancy follows the
	// shared-memory footprint (T+2)² doubles against a 48 KB bank and a
	// 16-block residency cap, 64 warps per SM.
	coalesce := 0.35 + 0.65*math.Min(1, t/32)
	sharedPerBlock := (t + 2) * (t + 2) * 8
	blocksPerSM := math.Min(16, math.Floor(48*1024/sharedPerBlock))
	warpsPerBlock := math.Max(1, t*t/32)
	occ := math.Min(1, blocksPerSM*warpsPerBlock/64)
	effBW := spec.MemBandwidthGBs * coalesce * (0.5 + 0.5*occ)

	// Small grids cannot fill the device.
	fill := math.Min(1, float64(n)*float64(n)/(64*1024))
	effBW *= 0.25 + 0.75*fill

	memSeconds := traffic / (effBW * 1e9)
	computeSeconds := work / (0.10 * spec.PeakGFLOPsFP64 * 1e9)
	seconds := math.Max(memSeconds, computeSeconds)

	perf := work / seconds
	uMem := math.Min(1, (traffic/seconds)/(spec.MemBandwidthGBs*1e9))
	uPipes := perf / 1e9 / spec.PeakGFLOPsFP64
	// Shared-memory staging and barriers add issue activity that grows
	// with occupancy.
	power := spec.BasePowerW + spec.ComputePowerW*(uPipes*1.3+0.10*occ) + spec.MemPowerW*uMem
	return kernelResult(n, work, seconds, power), nil
}
