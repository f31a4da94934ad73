package counters

import (
	"errors"
	"fmt"

	"energyprop/internal/gpusim"
	"energyprop/internal/workload"
)

// This file is the tests' oracle of CUPTI-style event counts for the
// bandwidth-bound application families (SpMV, stencil, and their
// compound composition), derived from the backend-neutral work models in
// internal/workload. The counts are pure functions of (problem size,
// knob, products, kernel time) — no sampling, no machine state — which is
// what makes the additivity property exactly testable: a compound
// application's raw counts must equal the sum of its phases' counts,
// while the ratio metric (sm_efficiency, a time-weighted average) must
// not.

// spmvEfficiency is the SpMV family's modeled SM efficiency fraction:
// device fill from (rows × lanes) against the warp-slot pool, scaled by
// the useful-lane fraction of each row's cooperative read.
func spmvEfficiency(n, lanes int) float64 {
	fill := float64(n) * float64(lanes) / (48 * 1024)
	if fill > 1 {
		fill = 1
	}
	util := float64(workload.SpMVNNZPerRow(n)) / float64(lanes)
	if util > 1 {
		util = 1
	}
	return fill * (0.4 + 0.6*util)
}

// stencilEfficiency is the stencil family's modeled SM efficiency
// fraction: resident-block occupancy under the (T+2)² shared-memory
// footprint, scaled by grid fill.
func stencilEfficiency(n, tile int) float64 {
	t := float64(tile)
	sharedPerBlock := (t + 2) * (t + 2) * 8
	blocksPerSM := 48 * 1024 / sharedPerBlock
	if blocksPerSM > 16 {
		blocksPerSM = 16
	}
	warpsPerBlock := t * t / 32
	if warpsPerBlock < 1 {
		warpsPerBlock = 1
	}
	occ := blocksPerSM * warpsPerBlock / 64
	if occ > 1 {
		occ = 1
	}
	fill := float64(n) * float64(n) / (64 * 1024)
	if fill > 1 {
		fill = 1
	}
	return occ * (0.5 + 0.5*fill)
}

// spmvRaw returns the family's additive raw counts for one product.
func spmvRaw(n, lanes int) Counts {
	nnz := workload.SpMVNNZ(n)
	rows := float64(n)
	flops := workload.SpMVFlops(n)
	return Counts{
		FlopCountDP: flops,
		// The CSR stream (values + indices + row pointers) and the x
		// gather read; the y vector writes. 32-byte transactions.
		DRAMReadTransactions:  (12*nnz + 4*(rows+1) + 8*rows) / 32,
		DRAMWriteTransactions: 8 * rows / 32,
		// CSR-vector reduces with warp shuffles, not shared memory.
		SharedLoadTransactions: 0,
		// One FMA per 2 flops plus ~2.5 companion instructions (gather
		// address math, predicates, shuffles), normalized per warp.
		InstExecuted: flops / 2 * (1 + 2.5) / 32,
		// lanes cooperating threads per row, 32 lanes per warp.
		WarpsLaunched: rows * float64(lanes) / 32,
	}
}

// stencilRaw returns the family's additive raw counts for one sweep.
func stencilRaw(n, tile int) Counts {
	t := float64(tile)
	cells := float64(n) * float64(n)
	flops := workload.StencilFlops(n)
	halo := (t + 2) * (t + 2) / (t * t)
	warpsPerBlock := t * t / 32
	if warpsPerBlock < 1 {
		warpsPerBlock = 1
	}
	tiles := cells / (t * t)
	return Counts{
		FlopCountDP: flops,
		// Each cell reads once, inflated by the staged halo; writes once.
		DRAMReadTransactions:  8 * cells * halo / 32,
		DRAMWriteTransactions: 8 * cells / 32,
		// Five 8-byte shared reads per cell update; transactions are per
		// warp (32 lanes × 8 B = 256 B).
		SharedLoadTransactions: 5 * cells * 8 / 256,
		// One FMA per 2 flops plus ~1.5 companions (shared addressing,
		// barriers), per warp.
		InstExecuted:  flops / 2 * (1 + 1.5) / 32,
		WarpsLaunched: tiles * warpsPerBlock,
	}
}

// finishCollect scales the per-product raw counts, then adds the
// time-derived events: active_cycles integrates the efficiency over the
// kernel time, and sm_efficiency reports it as the CUPTI percentage.
func finishCollect(raw Counts, products int, seconds, clockMHz float64, sms int, eff float64) (Counts, error) {
	if products < 1 {
		return nil, fmt.Errorf("counters: products=%d must be >= 1", products)
	}
	if seconds <= 0 || clockMHz <= 0 || sms < 1 {
		return nil, errors.New("counters: seconds, clockMHz, and sms must be positive")
	}
	out := make(Counts, len(raw)+2)
	for e, v := range raw {
		out[e] = v * float64(products)
	}
	out[ActiveCycles] = seconds * clockMHz * 1e6 * float64(sms) * eff
	out[SMEfficiency] = 100 * eff
	return out, nil
}

// CollectSpMV derives the event counts of `products` SpMV products at
// the given lane count, with seconds the total kernel time.
func CollectSpMV(n, lanes, products int, seconds, clockMHz float64, sms int) (Counts, error) {
	if n < 1 {
		return nil, fmt.Errorf("counters: SpMV size %d must be >= 1", n)
	}
	if !gpusim.ValidSpMVLanes(lanes) {
		return nil, fmt.Errorf("counters: SpMV lanes %d not in %v", lanes, gpusim.SpMVLaneSpace())
	}
	return finishCollect(spmvRaw(n, lanes), products, seconds, clockMHz, sms, spmvEfficiency(n, lanes))
}

// CollectStencil derives the event counts of `products` stencil sweeps
// at the given tile edge, with seconds the total kernel time.
func CollectStencil(n, tile, products int, seconds, clockMHz float64, sms int) (Counts, error) {
	if !gpusim.ValidStencilTile(tile) {
		return nil, fmt.Errorf("counters: stencil tile %d not in %v", tile, gpusim.StencilTileSpace())
	}
	if n < tile {
		return nil, fmt.Errorf("counters: stencil grid %d smaller than tile %d", n, tile)
	}
	return finishCollect(stencilRaw(n, tile), products, seconds, clockMHz, sms, stencilEfficiency(n, tile))
}

// CollectCompound derives the event counts of the compound application
// (SpMV then stencil, back to back at the canonical knobs) as a
// whole-run collection: raw counts accumulate over both phases, and the
// efficiency is the time-weighted average — exactly what a counter
// group read once around the whole run would report. Raw counts are
// therefore additive against per-phase collections; sm_efficiency is
// not, which is the property that disqualifies ratio metrics as energy
// model variables.
func CollectCompound(n, products int, spmvSeconds, stencilSeconds, clockMHz float64, sms int) (Counts, error) {
	if n < gpusim.DefaultStencilTile {
		return nil, fmt.Errorf("counters: compound size %d smaller than the canonical stencil tile %d",
			n, gpusim.DefaultStencilTile)
	}
	if spmvSeconds <= 0 || stencilSeconds <= 0 {
		return nil, errors.New("counters: phase seconds must be positive")
	}
	sp := spmvRaw(n, gpusim.DefaultSpMVLanes)
	st := stencilRaw(n, gpusim.DefaultStencilTile)
	raw := make(Counts, len(sp))
	for e, v := range sp {
		raw[e] = v + st[e]
	}
	total := spmvSeconds + stencilSeconds
	eff := (spmvSeconds*spmvEfficiency(n, gpusim.DefaultSpMVLanes) +
		stencilSeconds*stencilEfficiency(n, gpusim.DefaultStencilTile)) / total
	return finishCollect(raw, products, total, clockMHz, sms, eff)
}
