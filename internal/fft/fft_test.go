package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	max := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		x := randomSignal(n, int64(n))
		want := DFTNaive(x)
		got := make([]complex128, n)
		copy(got, x)
		if err := FFT(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		x := make([]complex128, n)
		if err := FFT(x); err == nil {
			t.Errorf("n=%d: want error", n)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	x := randomSignal(256, 7)
	y := make([]complex128, len(x))
	copy(y, x)
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if err := IFFT(y); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(x, y); d > 1e-10 {
		t.Errorf("round-trip max diff %v", d)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// Σ|x|² = (1/n)·Σ|X|².
	check := func(seed int64) bool {
		x := randomSignal(64, seed)
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		if err := FFT(x); err != nil {
			return false
		}
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/64) < 1e-8*(1+timeE)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	check := func(seed int64) bool {
		a := randomSignal(32, seed)
		b := randomSignal(32, seed+1)
		sum := make([]complex128, 32)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		if FFT(a) != nil || FFT(b) != nil || FFT(sum) != nil {
			return false
		}
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSignal2DBasics(t *testing.T) {
	if _, err := NewSignal2D(12); err == nil {
		t.Error("non-power-of-two size: want error")
	}
	s, err := NewSignal2D(4)
	if err != nil {
		t.Fatal(err)
	}
	s.Set(1, 2, 3+4i)
	if s.At(1, 2) != 3+4i {
		t.Error("At/Set round trip")
	}
	c := s.Clone()
	c.Set(1, 2, 0)
	if s.At(1, 2) != 3+4i {
		t.Error("Clone must deep-copy")
	}
}

func TestFFT2DImpulse(t *testing.T) {
	s, err := NewSignal2D(8)
	if err != nil {
		t.Fatal(err)
	}
	s.Set(0, 0, 1)
	if err := FFT2D(s, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if cmplx.Abs(s.At(i, j)-1) > 1e-12 {
				t.Fatalf("(%d,%d) = %v, want 1", i, j, s.At(i, j))
			}
		}
	}
}

func TestFFT2DThreadCountInvariance(t *testing.T) {
	base, err := NewSignal2D(32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := range base.Data {
		base.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	ref := base.Clone()
	if err := FFT2D(ref, 1); err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 7, 32, 100} {
		s := base.Clone()
		if err := FFT2D(s, threads); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if d := maxDiff(s.Data, ref.Data); d > 1e-10 {
			t.Errorf("threads=%d: max diff %v vs serial", threads, d)
		}
	}
}

func TestFFT2DSeparability(t *testing.T) {
	// 2D FFT must equal row FFTs followed by column naive DFTs.
	n := 8
	s, err := NewSignal2D(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := range s.Data {
		s.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := s.Clone()
	// Rows by naive DFT.
	for i := 0; i < n; i++ {
		row := DFTNaive(want.Data[i*n : (i+1)*n])
		copy(want.Data[i*n:(i+1)*n], row)
	}
	// Columns by naive DFT.
	for j := 0; j < n; j++ {
		col := make([]complex128, n)
		for i := 0; i < n; i++ {
			col[i] = want.At(i, j)
		}
		col = DFTNaive(col)
		for i := 0; i < n; i++ {
			want.Set(i, j, col[i])
		}
	}
	if err := FFT2D(s, 4); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(s.Data, want.Data); d > 1e-9 {
		t.Errorf("separability: max diff %v", d)
	}
}

func TestFFT2DInvalidThreads(t *testing.T) {
	s, _ := NewSignal2D(4)
	if err := FFT2D(s, 0); err == nil {
		t.Error("threads=0: want error")
	}
}

func TestWorkModel(t *testing.T) {
	if got := Work(1024); math.Abs(got-5*1024*1024*10) > 1e-6 {
		t.Errorf("Work(1024) = %v, want %v", got, 5*1024*1024*10)
	}
	if Work(1) != 0 || Work(0) != 0 {
		t.Error("degenerate sizes should have zero work")
	}
	// Monotone in N.
	prev := 0.0
	for n := 2; n < 1000; n += 17 {
		w := Work(n)
		if w <= prev {
			t.Fatalf("Work not increasing at n=%d", n)
		}
		prev = w
	}
}

// IFFT performs an in-place inverse FFT of x, including the 1/n scaling.
// len(x) must be a power of two.
func IFFT(x []complex128) error { return transform(x, true) }

// DFTNaive computes the forward discrete Fourier transform directly in
// O(n²); it is the correctness oracle for FFT and works for any length.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

// At returns the element at row i, column j.
func (s *Signal2D) At(i, j int) complex128 { return s.Data[i*s.N+j] }

// Set assigns the element at row i, column j.
func (s *Signal2D) Set(i, j int, v complex128) { s.Data[i*s.N+j] = v }
