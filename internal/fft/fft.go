// Package fft provides the Fourier machinery behind Theorem 3 of the
// paper: computing the dot product of one random matrix with *every*
// fixed-size subrectangle of a data table is a 2D cross-correlation, which
// costs O(N log M) in the Fourier domain instead of O(N·M) naively.
//
// The package implements a radix-4 complex FFT over cached per-stage
// twiddle tables (kernel.go), a 1D forward transform in natural order
// (FFT), and real-input 2D cross-correlation returning only the "valid"
// region (positions where the kernel lies fully inside the data): Plan2D
// (plan.go) is the engine every pool build runs on, and
// CrossCorrelateValidNaive its O(N·M) reference.
package fft

import (
	"fmt"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n, with NextPow2(0) == 1.
// It panics on negative input.
func NextPow2(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("fft: NextPow2 of negative %d", n))
	}
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT performs an in-place forward transform of data, whose length must be
// a power of two (panic otherwise — the caller owns padding decisions).
func FFT(data []complex128) {
	kernelFor(len(data)).forward(data)
	bitReverse(data)
}

// bitReverse applies the bit-reversal permutation: the kernel's forward
// leaves its output in that order, and FFT's natural-order contract pays
// for the difference here.
func bitReverse(data []complex128) {
	n := len(data)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			data[i], data[j] = data[j], data[i]
		}
	}
}

// CrossCorrelateValidNaive computes, for every position (i, j) at which
// the ka×kb kernel fits entirely inside the n×m data, the dot product
//
//	out[i][j] = Σ_{u<ka, v<kb} data[i+u][j+v] · kernel[u][v]
//
// returning a (n-ka+1)×(m-kb+1) row-major result. This is exactly the
// "sketch entry for every subtable position" operation of Theorem 3, in
// O(N·M): the reference Plan2D is verified against and the paper's
// "straightforward" baseline in benchmarks. data and kernel are row-major
// with the given dimensions; the kernel must not exceed the data in
// either dimension.
func CrossCorrelateValidNaive(data []float64, n, m int, kernel []float64, ka, kb int) []float64 {
	checkDims(data, n, m, kernel, ka, kb)
	outRows, outCols := n-ka+1, m-kb+1
	out := make([]float64, outRows*outCols)
	for i := 0; i < outRows; i++ {
		for j := 0; j < outCols; j++ {
			var sum float64
			for u := 0; u < ka; u++ {
				drow := data[(i+u)*m+j:]
				krow := kernel[u*kb : (u+1)*kb]
				for v, kv := range krow {
					sum += drow[v] * kv
				}
			}
			out[i*outCols+j] = sum
		}
	}
	return out
}

func checkDims(data []float64, n, m int, kernel []float64, ka, kb int) {
	if n <= 0 || m <= 0 || ka <= 0 || kb <= 0 {
		panic(fmt.Sprintf("fft: non-positive dims data %dx%d kernel %dx%d", n, m, ka, kb))
	}
	if len(data) != n*m {
		panic(fmt.Sprintf("fft: data length %d != %d*%d", len(data), n, m))
	}
	if len(kernel) != ka*kb {
		panic(fmt.Sprintf("fft: kernel length %d != %d*%d", len(kernel), ka, kb))
	}
	if ka > n || kb > m {
		panic(fmt.Sprintf("fft: kernel %dx%d exceeds data %dx%d", ka, kb, n, m))
	}
}
