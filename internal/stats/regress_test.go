package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonCorrelationKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := PearsonCorrelation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, err = PearsonCorrelation(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
	if _, err := PearsonCorrelation(xs, []float64{1, 1, 1, 1}); err == nil {
		t.Error("constant series: want error")
	}
}

func TestPearsonCorrelationBoundedProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		r, err := PearsonCorrelation(xs, ys)
		if err != nil {
			return true
		}
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMultipleRegressionExact(t *testing.T) {
	// y = 1 + 2a + 3b.
	rows := [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}, {5, 1},
	}
	ys := make([]float64, len(rows))
	for i, r := range rows {
		ys[i] = 1 + 2*r[0] + 3*r[1]
	}
	coef, r2, err := MultipleRegression(rows, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEqual(coef[i], want[i], 1e-9) {
			t.Errorf("coef[%d] = %v, want %v", i, coef[i], want[i])
		}
	}
	if !almostEqual(r2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", r2)
	}
}

func TestMultipleRegressionCollinear(t *testing.T) {
	rows := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	ys := []float64{1, 2, 3, 4}
	if _, _, err := MultipleRegression(rows, ys); err == nil {
		t.Error("collinear predictors: want error")
	}
}

func TestMultipleRegressionInputValidation(t *testing.T) {
	if _, _, err := MultipleRegression(nil, nil); err == nil {
		t.Error("empty input: want error")
	}
	if _, _, err := MultipleRegression([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows: want error")
	}
	if _, _, err := MultipleRegression([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("n < coefficients: want error")
	}
}

func TestSolveLinearSystemKnown(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := solveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSystemSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveLinearSystem(a, b); err == nil {
		t.Error("singular matrix: want error")
	}
}
