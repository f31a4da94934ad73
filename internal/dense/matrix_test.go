package dense

import (
	"errors"
	"math"
	"testing"
)

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 3); err == nil {
		t.Error("zero rows: want error")
	}
	if _, err := NewMatrix(3, -1); err == nil {
		t.Error("negative cols: want error")
	}
	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 6 {
		t.Errorf("len(Data) = %d, want 6", len(m.Data))
	}
}

func TestMustMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMatrix(0,0) should panic")
		}
	}()
	MustMatrix(0, 0)
}

func TestAtSet(t *testing.T) {
	m := MustMatrix(3, 4)
	m.Set(2, 1, 7.5)
	if m.At(2, 1) != 7.5 {
		t.Error("At/Set round trip")
	}
	if m.Data[2*4+1] != 7.5 {
		t.Error("row-major layout")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := MustMatrix(5, 5)
	b := MustMatrix(5, 5)
	a.FillRandom(9)
	b.FillRandom(9)
	if !a.EqualApprox(b, 0) {
		t.Error("same seed must produce identical fill")
	}
	b.FillRandom(10)
	if a.EqualApprox(b, 0) {
		t.Error("different seeds should differ")
	}
	for _, x := range a.Data {
		if x < -1 || x >= 1 {
			t.Fatalf("value %v out of [-1,1)", x)
		}
	}
}

func TestFillIdentityErrors(t *testing.T) {
	m := MustMatrix(2, 3)
	if err := m.FillIdentity(); err == nil {
		t.Error("non-square identity: want error")
	}
}

func TestEqualApproxShapeMismatch(t *testing.T) {
	a := MustMatrix(2, 2)
	b := MustMatrix(2, 3)
	if a.EqualApprox(b, 1) {
		t.Error("shape mismatch must not be equal")
	}
	if !math.IsInf(a.MaxAbsDiff(b), 1) {
		t.Error("MaxAbsDiff of mismatched shapes should be +Inf")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := &Matrix{Rows: 1, Cols: 2, Data: []float64{3, 4}}
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-14 {
		t.Errorf("norm = %v, want 5", got)
	}
}

// At returns the element at (i, j) without bounds checking beyond the
// slice's own.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// FillIdentity zeroes the matrix and sets its main diagonal to 1. It
// returns an error for non-square matrices.
func (m *Matrix) FillIdentity() error {
	if m.Rows != m.Cols {
		return errors.New("dense: identity requires a square matrix")
	}
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		m.Set(i, i, 1)
	}
	return nil
}

// EqualApprox reports whether the two matrices have the same shape and all
// elements within tol of each other.
func (m *Matrix) EqualApprox(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// FrobeniusNorm returns sqrt(Σ x²).
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}
