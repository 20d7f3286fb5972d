// Package fft implements the Fourier transform used by the HPCC FFT
// benchmark: an iterative radix-2 Cooley–Tukey transform for the local
// column FFTs of the distributed six-step algorithm that internal/hpcc
// assembles over the message-passing layer.
package fft

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNotPow2 is returned when a transform length is not a power of two.
var ErrNotPow2 = errors.New("fft: length must be a power of two")

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward computes the in-place forward DFT of x (length must be a power
// of two): X[k] = sum_j x[j] * exp(-2πi jk/n).
func Forward(x []complex128) error { return transform(x, -1) }

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalization, so Inverse(Forward(x)) == x.
func Inverse(x []complex128) error {
	if err := transform(x, +1); err != nil {
		return err
	}
	scale := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= scale
	}
	return nil
}

// transform is the iterative radix-2 Cooley–Tukey DIT FFT with
// bit-reversal permutation; sign is -1 for forward, +1 for inverse.
func transform(x []complex128, sign float64) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPow2(n) {
		return ErrNotPow2
	}
	bitReverse(x)
	for span := 2; span <= n; span <<= 1 {
		half := span >> 1
		// Principal root for this stage.
		ang := sign * 2 * math.Pi / float64(span)
		wStep := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += span {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return nil
}

// bitReverse permutes x into bit-reversed order in place.
func bitReverse(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// Flops returns the nominal operation count HPCC uses for an n-point
// complex FFT: 5 n log2 n.
func Flops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}
