// Package transform implements the classical dimensionality-reduction
// baselines the paper contrasts with stable sketches (Section 2): keeping
// the first coefficients of an orthonormal transform — Discrete Fourier,
// Discrete Cosine (DCT-II), or Haar wavelet — of each object.
//
// Because the transforms are orthonormal, the L2 distance between full
// coefficient vectors equals the L2 distance between the originals
// (Parseval), and truncation is the usual energy-concentration heuristic:
// good for smooth signals under L2, useless as an L1 estimator ("there is
// no equivalent result relating the L1 distance of transformed sequences
// to that of the original sequences"). The baselines experiment
// demonstrates exactly that failure.
package transform

import (
	"fmt"
	"math"

	"repro/internal/fft"
)

// Method selects the transform.
type Method int

const (
	// DFT keeps the first m complex Fourier coefficients (stored as 2m
	// floats, with the √2 real-signal energy correction on non-DC bins).
	DFT Method = iota
	// DCT keeps the first m DCT-II coefficients (orthonormal variant).
	DCT
	// Haar keeps the m coarsest coefficients of the orthonormal Haar
	// wavelet transform.
	Haar
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case DFT:
		return "DFT"
	case DCT:
		return "DCT"
	case Haar:
		return "Haar"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Reducer reduces length-n vectors to m transform coefficients.
type Reducer struct {
	method Method
	n      int // input length
	padded int // power-of-two working length (DFT, Haar)
	m      int // kept coefficients
}

// NewReducer validates and builds a reducer. Constraints: n ≥ 1 and
// 1 ≤ m ≤ limit, where limit is n for DCT, padded/2 for DFT (beyond that
// the conjugate-symmetric bins double-count energy) and padded for Haar.
func NewReducer(method Method, n, m int) (*Reducer, error) {
	if n < 1 {
		return nil, fmt.Errorf("transform: input length %d", n)
	}
	if m < 1 {
		return nil, fmt.Errorf("transform: kept coefficients %d", m)
	}
	padded := fft.NextPow2(n)
	var limit int
	switch method {
	case DFT:
		limit = padded / 2
		if limit == 0 {
			limit = 1
		}
	case DCT:
		limit = n
	case Haar:
		limit = padded
	default:
		return nil, fmt.Errorf("transform: unknown method %d", int(method))
	}
	if m > limit {
		return nil, fmt.Errorf("transform: m = %d exceeds limit %d for %v with n = %d",
			m, limit, method, n)
	}
	return &Reducer{method: method, n: n, padded: padded, m: m}, nil
}

// OutputLen returns the reduced representation length in float64s
// (2m for DFT, m otherwise).
func (r *Reducer) OutputLen() int {
	if r.method == DFT {
		return 2 * r.m
	}
	return r.m
}

// Reduce computes the reduced representation of vec into dst (allocated
// if too small). Panics if vec's length is not the reducer's n.
func (r *Reducer) Reduce(vec, dst []float64) []float64 {
	if len(vec) != r.n {
		panic(fmt.Sprintf("transform: input length %d, want %d", len(vec), r.n))
	}
	out := r.OutputLen()
	if cap(dst) < out {
		dst = make([]float64, out)
	}
	dst = dst[:out]
	switch r.method {
	case DFT:
		r.reduceDFT(vec, dst)
	case DCT:
		r.reduceDCT(vec, dst)
	case Haar:
		r.reduceHaar(vec, dst)
	}
	return dst
}

func (r *Reducer) reduceDFT(vec, dst []float64) {
	buf := make([]complex128, r.padded)
	for i, v := range vec {
		buf[i] = complex(v, 0)
	}
	fft.FFT(buf)
	scale := 1 / math.Sqrt(float64(r.padded))
	sqrt2 := math.Sqrt2
	for k := 0; k < r.m; k++ {
		c := buf[k]
		s := scale
		if k > 0 {
			// Real input: bin k and padded-k are conjugate; weighting by
			// √2 accounts for the dropped mirror bin's equal energy.
			s *= sqrt2
		}
		dst[2*k] = real(c) * s
		dst[2*k+1] = imag(c) * s
	}
}

func (r *Reducer) reduceDCT(vec, dst []float64) {
	n := float64(r.n)
	for k := 0; k < r.m; k++ {
		var sum float64
		fk := float64(k)
		for j, v := range vec {
			sum += v * math.Cos(math.Pi*(float64(j)+0.5)*fk/n)
		}
		s := math.Sqrt(2 / n)
		if k == 0 {
			s = math.Sqrt(1 / n)
		}
		dst[k] = sum * s
	}
}

func (r *Reducer) reduceHaar(vec, dst []float64) {
	// Full orthonormal Haar transform on the zero-padded signal, emitted
	// coarsest-first: [approximation, detail level 1 (coarsest), ...].
	work := make([]float64, r.padded)
	copy(work, vec)
	coeffs := make([]float64, r.padded)
	writeEnd := r.padded
	length := r.padded
	inv := 1 / math.Sqrt2
	for length > 1 {
		half := length / 2
		next := make([]float64, half)
		details := make([]float64, half)
		for i := 0; i < half; i++ {
			a, b := work[2*i], work[2*i+1]
			next[i] = (a + b) * inv
			details[i] = (a - b) * inv
		}
		copy(coeffs[writeEnd-half:writeEnd], details)
		writeEnd -= half
		copy(work, next)
		length = half
	}
	coeffs[0] = work[0]
	copy(dst, coeffs[:r.m])
}

// Dist returns the L2 distance between two reduced representations — the
// baseline's estimate of the original L2 distance (exact when no energy
// was truncated, an underestimate otherwise).
func (r *Reducer) Dist(a, b []float64) float64 {
	if len(a) != r.OutputLen() || len(b) != r.OutputLen() {
		panic(fmt.Sprintf("transform: reduced lengths %d/%d, want %d",
			len(a), len(b), r.OutputLen()))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
