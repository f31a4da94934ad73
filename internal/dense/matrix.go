// Package dense provides real dense linear algebra: a row-major matrix
// type and serial, blocked, and parallel DGEMM implementations including
// the paper's threadgroup decomposition (Fig 3), where matrices A and C are
// horizontally partitioned among p threadgroups of t threads each, matrix B
// is shared, threads are independent, and every thread receives an equal
// share of the workload. Two tuned variants — a packing ("MKL-like") and a
// tiling ("OpenBLAS-like") kernel — stand in for the two BLAS libraries the
// paper's Fig 4 compares.
package dense

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order; len(Data) == Rows*Cols.
	Data []float64
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("dense: invalid shape %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}, nil
}

// MustMatrix is NewMatrix that panics on error; for tests and examples
// with known-good shapes.
func MustMatrix(rows, cols int) *Matrix {
	m, err := NewMatrix(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// FillRandom fills the matrix with deterministic uniform values in [-1, 1)
// derived from the seed.
func (m *Matrix) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference, or +Inf
// for shape mismatches.
func (m *Matrix) MaxAbsDiff(o *Matrix) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i := range m.Data {
		if d := math.Abs(m.Data[i] - o.Data[i]); d > max {
			max = d
		}
	}
	return max
}
