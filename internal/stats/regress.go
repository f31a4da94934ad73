package stats

import (
	"errors"
	"math"
)

// PearsonCorrelation returns the Pearson correlation coefficient of the two
// series. It is used to select model variables with "high positive
// correlation with dynamic energy".
func PearsonCorrelation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: x and y lengths differ")
	}
	n := len(xs)
	if n < 2 {
		return 0, errors.New("stats: correlation needs at least 2 points")
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: correlation undefined for a constant series")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MultipleRegression fits y = β₀ + Σ βⱼ·xⱼ by solving the normal equations
// with Gaussian elimination (partial pivoting). rows[i] is the i-th
// observation's predictor vector; all rows must have the same length.
// It returns the coefficient vector [β₀, β₁, …] and the R² of the fit.
// It is the engine behind the linear energy predictive models of
// internal/counters.
func MultipleRegression(rows [][]float64, ys []float64) (coef []float64, r2 float64, err error) {
	n := len(rows)
	if n == 0 || n != len(ys) {
		return nil, 0, errors.New("stats: bad regression inputs")
	}
	p := len(rows[0])
	for _, r := range rows {
		if len(r) != p {
			return nil, 0, errors.New("stats: ragged predictor rows")
		}
	}
	k := p + 1 // intercept column
	if n < k {
		return nil, 0, errors.New("stats: fewer observations than coefficients")
	}
	// Build X'X (k×k) and X'y (k).
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	x := make([]float64, k)
	for i := 0; i < n; i++ {
		x[0] = 1
		copy(x[1:], rows[i])
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				xtx[a][b] += x[a] * x[b]
			}
			xty[a] += x[a] * ys[i]
		}
	}
	coef, err = solveLinearSystem(xtx, xty)
	if err != nil {
		return nil, 0, err
	}
	// R².
	var my float64
	for _, y := range ys {
		my += y
	}
	my /= float64(n)
	var ssRes, ssTot float64
	for i := 0; i < n; i++ {
		pred := coef[0]
		for j := 0; j < p; j++ {
			pred += coef[j+1] * rows[i][j]
		}
		r := ys[i] - pred
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	r2 = 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return coef, r2, nil
}

// solveLinearSystem solves A·x = b in place using Gaussian elimination with
// partial pivoting. A and b are modified.
func solveLinearSystem(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, errors.New("stats: singular normal-equation matrix (collinear predictors)")
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}
