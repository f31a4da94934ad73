// Package fft implements the 2D fast Fourier transform application the
// paper's strong-EP study (Fig 1) is built on: an iterative radix-2
// complex FFT, a load-balanced parallel 2D FFT that divides rows and
// columns equally among independent worker threads (no inter-thread
// communication, as the weak-EP application guidelines require), and the
// paper's work model W(N) = 5·N²·log₂(N) for an N×N complex signal matrix.
package fft

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// ErrNotPowerOfTwo is returned when a transform length is not a power of
// two (the radix-2 algorithm's requirement).
var ErrNotPowerOfTwo = errors.New("fft: length must be a power of two")

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT performs an in-place forward radix-2 decimation-in-time FFT of x.
// len(x) must be a power of two.
//
//lint:root hotalloc in-place per-point transform; the 2D driver calls it once per row/column
func FFT(x []complex128) error { return transform(x, false) }

func transform(x []complex128, inverse bool) error {
	n := len(x)
	if !isPow2(n) {
		return fmt.Errorf("%w (got %d)", ErrNotPowerOfTwo, n)
	}
	if n == 1 {
		return nil
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// Signal2D is an N×N complex signal matrix stored row-major.
type Signal2D struct {
	N    int
	Data []complex128
}

// NewSignal2D allocates an N×N signal; N must be a power of two.
func NewSignal2D(n int) (*Signal2D, error) {
	if !isPow2(n) {
		return nil, fmt.Errorf("%w (got %d)", ErrNotPowerOfTwo, n)
	}
	return &Signal2D{N: n, Data: make([]complex128, n*n)}, nil
}

// Clone returns a deep copy.
func (s *Signal2D) Clone() *Signal2D {
	c := &Signal2D{N: s.N, Data: make([]complex128, len(s.Data))}
	copy(c.Data, s.Data)
	return c
}

// FFT2D performs an in-place forward 2D FFT of the signal using the given
// number of independent worker threads. Rows are divided equally among
// threads for the row pass, then columns for the column pass — the
// load-balanced, communication-free decomposition the paper's EP
// methodology requires (threads only synchronize at the pass barrier,
// which is part of the harness, not the computation).
//
//lint:root hotalloc per-point FFT driver; steady state reuses pooled column scratch
func FFT2D(s *Signal2D, threads int) error {
	if threads < 1 {
		return errors.New("fft: threads must be >= 1")
	}
	if threads > s.N {
		threads = s.N
	}
	n := s.N
	// Row pass.
	//lint:ignore hotalloc row-pass closure: created once per FFT2D call, not per row; the rows it transforms are in-place
	if err := parallelPass(threads, n, func(i int) error {
		return FFT(s.Data[i*n : (i+1)*n])
	}); err != nil {
		return err
	}
	// Column pass: each worker gathers a column into a scratch slice,
	// transforms, and scatters back. Workers own disjoint columns and
	// reuse one pooled scratch column for their whole share (the gather
	// fully overwrites it, so no zeroing is needed).
	//lint:ignore hotalloc column-pass closure: created once per FFT2D call, not per column; workers reuse pooled scratch
	return parallelRange(threads, n, func(lo, hi int) error {
		cp := colPool.Get().(*[]complex128)
		defer colPool.Put(cp)
		if cap(*cp) < n {
			//lint:ignore hotalloc pool grow path: runs only on a cold pool or a larger n, steady state reuses the column buffer
			*cp = make([]complex128, n)
		}
		col := (*cp)[:n]
		for j := lo; j < hi; j++ {
			for i := 0; i < n; i++ {
				col[i] = s.Data[i*n+j]
			}
			if err := FFT(col); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				s.Data[i*n+j] = col[i]
			}
		}
		return nil
	})
}

// colPool recycles the column-pass scratch slices across FFT2D calls so
// a steady-state transform allocates only its worker goroutines.
var colPool = sync.Pool{New: func() any { return new([]complex128) }}

// parallelPass runs fn(i) for i in [0, n) across the given number of
// worker goroutines, each taking a contiguous equal share.
func parallelPass(threads, n int, fn func(int) error) error {
	//lint:ignore hotalloc adapter closure: created once per pass, not per index; it only forwards to fn
	return parallelRange(threads, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// parallelRange divides [0, n) into contiguous equal shares, one per
// worker goroutine, and runs fn(lo, hi) on each — the variant of
// parallelPass for workers that carry per-share state (scratch buffers)
// across iterations.
func parallelRange(threads, n int, fn func(lo, hi int) error) error {
	//lint:ignore hotalloc harness setup: one O(threads) slice per pass so workers report errors without a channel; not per-element work
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		lo := w * n / threads
		hi := (w + 1) * n / threads
		wg.Add(1)
		//lint:ignore hotalloc worker-spawn closure: created once per worker per pass; the per-element loop runs inside fn
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Work returns the paper's work model for the 2D FFT of an N×N complex
// signal: W = 5·N²·log₂(N). N need not be a power of two here — the paper
// sweeps N from 125 to 44000 (FFTW/MKL-style mixed-radix transforms); the
// model is what the strong-EP analysis plots against.
func Work(n int) float64 {
	if n < 2 {
		return 0
	}
	fn := float64(n)
	return 5 * fn * fn * math.Log2(fn)
}
