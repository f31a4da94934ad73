package dense

import (
	"math"
	"testing"
	"testing/quick"
)

func randomMatrix(t *testing.T, rows, cols int, seed int64) *Matrix {
	t.Helper()
	m, err := NewMatrix(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	m.FillRandom(seed)
	return m
}

func TestGemmNaiveIdentity(t *testing.T) {
	a := randomMatrix(t, 8, 8, 1)
	id := MustMatrix(8, 8)
	if err := id.FillIdentity(); err != nil {
		t.Fatal(err)
	}
	c := MustMatrix(8, 8)
	if err := GemmNaive(1, a, id, 0, c); err != nil {
		t.Fatal(err)
	}
	if !c.EqualApprox(a, 1e-14) {
		t.Error("A·I != A")
	}
}

func TestGemmNaiveKnownProduct(t *testing.T) {
	// [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50].
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := MustMatrix(2, 2)
	if err := GemmNaive(1, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-14 {
			t.Errorf("C[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestGemmShapeErrors(t *testing.T) {
	a := MustMatrix(3, 4)
	b := MustMatrix(5, 2) // inner mismatch
	c := MustMatrix(3, 2)
	if err := GemmNaive(1, a, b, 0, c); err == nil {
		t.Error("inner mismatch: want error")
	}
	b2 := MustMatrix(4, 2)
	cBad := MustMatrix(2, 2)
	if err := GemmNaive(1, a, b2, 0, cBad); err == nil {
		t.Error("C shape mismatch: want error")
	}
	if err := GemmNaive(1, nil, b2, 0, c); err == nil {
		t.Error("nil matrix: want error")
	}
}

func TestBlockedMatchesNaive(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {7, 5, 3}, {64, 64, 64}, {65, 130, 67}, {128, 96, 200},
	}
	for _, v := range []Variant{VariantPacked, VariantTiled} {
		for _, s := range shapes {
			a := randomMatrix(t, s.m, s.k, 10)
			b := randomMatrix(t, s.k, s.n, 11)
			cSeed := randomMatrix(t, s.m, s.n, 12)

			want := cSeed.Clone()
			if err := GemmNaive(1.5, a, b, 0.5, want); err != nil {
				t.Fatal(err)
			}
			got := cSeed.Clone()
			if err := GemmBlocked(v, 1.5, a, b, 0.5, got, 0, s.m); err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(want); d > 1e-10 {
				t.Errorf("%v %dx%dx%d: max diff %v", v, s.m, s.k, s.n, d)
			}
		}
	}
}

func TestBlockedRowRange(t *testing.T) {
	a := randomMatrix(t, 50, 40, 2)
	b := randomMatrix(t, 40, 30, 3)
	c := MustMatrix(50, 30)
	// Compute only rows [10, 20).
	if err := GemmBlocked(VariantTiled, 1, a, b, 0, c, 10, 20); err != nil {
		t.Fatal(err)
	}
	want := MustMatrix(50, 30)
	if err := GemmNaive(1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		for j := 0; j < 30; j++ {
			got := c.At(i, j)
			if i >= 10 && i < 20 {
				if math.Abs(got-want.At(i, j)) > 1e-10 {
					t.Fatalf("row %d inside range differs", i)
				}
			} else if got != 0 {
				t.Fatalf("row %d outside range was touched", i)
			}
		}
	}
}

func TestBlockedRowRangeErrors(t *testing.T) {
	a := randomMatrix(t, 4, 4, 1)
	b := randomMatrix(t, 4, 4, 2)
	c := MustMatrix(4, 4)
	if err := GemmBlocked(VariantTiled, 1, a, b, 0, c, -1, 2); err == nil {
		t.Error("negative rowLo: want error")
	}
	if err := GemmBlocked(VariantTiled, 1, a, b, 0, c, 0, 5); err == nil {
		t.Error("rowHi beyond rows: want error")
	}
	if err := GemmBlocked(VariantTiled, 1, a, b, 0, c, 3, 2); err == nil {
		t.Error("inverted range: want error")
	}
	if err := GemmBlocked(Variant(99), 1, a, b, 0, c, 0, 4); err == nil {
		t.Error("unknown variant: want error")
	}
}

func TestGemmBetaHandling(t *testing.T) {
	a := randomMatrix(t, 16, 16, 4)
	b := randomMatrix(t, 16, 16, 5)
	for _, beta := range []float64{0, 1, -2.5} {
		c0 := randomMatrix(t, 16, 16, 6)
		want := c0.Clone()
		if err := GemmNaive(2, a, b, beta, want); err != nil {
			t.Fatal(err)
		}
		got := c0.Clone()
		if err := GemmBlocked(VariantPacked, 2, a, b, beta, got, 0, 16); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Errorf("beta=%v: max diff %v", beta, d)
		}
	}
}

// Property: GEMM is linear in alpha — C(2α) - C(0-through-beta-0) scales.
func TestGemmAlphaLinearityProperty(t *testing.T) {
	check := func(seed int64, alphaRaw float64) bool {
		alpha := math.Mod(alphaRaw, 8)
		if math.IsNaN(alpha) {
			return true
		}
		a := MustMatrix(12, 12)
		a.FillRandom(seed)
		b := MustMatrix(12, 12)
		b.FillRandom(seed + 1)
		c1 := MustMatrix(12, 12)
		c2 := MustMatrix(12, 12)
		if err := GemmBlocked(VariantTiled, alpha, a, b, 0, c1, 0, 12); err != nil {
			return false
		}
		if err := GemmBlocked(VariantTiled, 2*alpha, a, b, 0, c2, 0, 12); err != nil {
			return false
		}
		for i := range c1.Data {
			if math.Abs(c2.Data[i]-2*c1.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, quickConfig()); err != nil {
		t.Error(err)
	}
}
