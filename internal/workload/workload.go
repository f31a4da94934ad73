// Package workload holds the backend-neutral analytic work models of the
// bandwidth-bound application families — SpMV over a synthetic banded
// CSR matrix and a 5-point stencil sweep. The device adapters in
// internal/device dispatch these families to per-backend machine models
// (cpusim, gpusim, hetero); this package owns only what every backend
// must agree on: how many flops a problem instance performs and how many
// bytes it must move in the ideal (fully cached, perfectly reused) case.
//
// Both families sit far below the roofline ridge of every simulated
// device (arithmetic intensity well under 1 flop/byte, against ridge
// points of 5-10), which is what makes them structurally different from
// the DGEMM/FFT families the weak-EP study was built on: their time is
// set by the memory system, and their dynamic power by memory activity
// rather than pipe occupancy.
package workload

// SpMVBand is the synthetic matrix's semi-bandwidth: the CSR operand is
// a banded n×n matrix with min(n, SpMVBand) nonzeros per row. A band
// keeps the nonzero count a pure function of n (no random sparsity
// pattern to seed) while still exercising the gather on the x vector
// that makes SpMV bandwidth-bound.
const SpMVBand = 27

// SpMVNNZPerRow returns the nonzeros per row of the synthetic banded
// matrix: min(n, SpMVBand).
func SpMVNNZPerRow(n int) int {
	if n < SpMVBand {
		return n
	}
	return SpMVBand
}

// SpMVNNZ returns the matrix's total nonzero count.
func SpMVNNZ(n int) float64 {
	return float64(n) * float64(SpMVNNZPerRow(n))
}

// SpMVFlops returns the flop count of one y = A·x product: a multiply
// and an add per stored nonzero.
func SpMVFlops(n int) float64 {
	return 2 * SpMVNNZ(n)
}

// SpMVBytes returns the ideal DRAM traffic of one product: the CSR
// values (8 B) and column indices (4 B) stream once per nonzero, the row
// pointers once per row, and the x and y vectors move once each. Real
// backends inflate this with their own gather and partition penalties.
func SpMVBytes(n int) float64 {
	nnz := SpMVNNZ(n)
	rows := float64(n)
	return 12*nnz + 4*(rows+1) + 16*rows
}

// StencilFlopsPerCell is the flop count of one 5-point update: four
// neighbor adds, the center term, and the coefficient multiply.
const StencilFlopsPerCell = 6

// StencilFlops returns the flop count of one Jacobi sweep over the n×n
// grid.
func StencilFlops(n int) float64 {
	return StencilFlopsPerCell * float64(n) * float64(n)
}

// StencilBytes returns the ideal DRAM traffic of one sweep: with perfect
// row reuse each cell is read once from the source grid and written once
// to the destination grid (8 B doubles each way).
func StencilBytes(n int) float64 {
	return 16 * float64(n) * float64(n)
}
