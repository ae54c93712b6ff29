package fft

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 127: 128, 128: 128, 129: 256}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPow2PanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NextPow2(-1)
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

// dftNaive is the O(n²) reference DFT, forward (sign −1) or unscaled
// inverse (sign +1). Roots come from one table of n so that n = 4096 is
// 16M multiplies, not 16M exponentials.
func dftNaive(in []complex128, sign float64) []complex128 {
	n := len(in)
	root := make([]complex128, n)
	for t := range root {
		root[t] = cmplx.Exp(complex(0, sign*2*math.Pi*float64(t)/float64(n)))
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += in[j] * root[k*j%n]
		}
		out[k] = sum
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// maxAbs is the largest magnitude in v, the yardstick of the relative
// tolerances below.
func maxAbs(v []complex128) float64 {
	var m float64
	for _, x := range v {
		m = max(m, cmplx.Abs(x))
	}
	return m
}

// Every power of two from 1 to 4096 — odd and even log₂, so both tails
// and every stage count of the radix-4 kernel — against the naive DFT.
// The inverse kernel runs in every correlation checked against
// CrossCorrelateValidNaive.
func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for n := 1; n <= 4096; n <<= 1 {
		in := randComplex(rng, n)
		want := dftNaive(in, -1)
		got := append([]complex128(nil), in...)
		FFT(got)
		tol := 1e-12 * maxAbs(want) * math.Log2(float64(2*n))
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > tol {
				t.Fatalf("n=%d: FFT[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTPanicsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 3))
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	const n = 64
	a := make([]complex128, n)
	b := make([]complex128, n)
	combo := make([]complex128, n)
	alpha := complex(2.5, -1)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), 0)
		b[i] = complex(rng.NormFloat64(), 0)
		combo[i] = alpha*a[i] + b[i]
	}
	FFT(a)
	FFT(b)
	FFT(combo)
	for i := range combo {
		want := alpha*a[i] + b[i]
		if cmplx.Abs(combo[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, combo[i], want)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	const n = 256
	in := make([]complex128, n)
	var timeEnergy float64
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeEnergy += real(in[i])*real(in[i]) + imag(in[i])*imag(in[i])
	}
	FFT(in)
	var freqEnergy float64
	for _, v := range in {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= n
	if math.Abs(timeEnergy-freqEnergy)/timeEnergy > 1e-10 {
		t.Errorf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	in := make([]complex128, 16)
	in[0] = 1
	FFT(in)
	for i, v := range in {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
}

func TestCrossCorrelateValidTiny(t *testing.T) {
	// 2x3 data, 2x2 kernel -> 1x2 output computed by hand.
	data := []float64{
		1, 2, 3,
		4, 5, 6,
	}
	kernel := []float64{
		1, 0,
		0, 1,
	}
	// out[0][0] = 1*1 + 5*1 = 6; out[0][1] = 2*1 + 6*1 = 8
	want := []float64{6, 8}
	got := correlate(NewPlan2D(data, 2, 3), kernel, 2, 2)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCrossCorrelateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	cases := []struct{ n, m, ka, kb int }{
		{4, 4, 2, 2},
		{8, 8, 8, 8},   // kernel == data: single dot product
		{16, 8, 3, 5},  // non-square everything
		{9, 13, 4, 4},  // non-power-of-two data
		{32, 32, 1, 1}, // scalar kernel
		{5, 31, 5, 2},  // kernel spans full height
	}
	for _, c := range cases {
		data := randSlice(rng, c.n*c.m)
		kernel := randSlice(rng, c.ka*c.kb)
		fast := correlate(NewPlan2D(data, c.n, c.m), kernel, c.ka, c.kb)
		slow := CrossCorrelateValidNaive(data, c.n, c.m, kernel, c.ka, c.kb)
		if len(fast) != len(slow) {
			t.Fatalf("%+v: len %d vs %d", c, len(fast), len(slow))
		}
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-7 {
				t.Fatalf("%+v: out[%d] = %v vs naive %v", c, i, fast[i], slow[i])
			}
		}
	}
}

func TestCrossCorrelatePanics(t *testing.T) {
	cases := []func(){
		func() { CrossCorrelateValidNaive(nil, 0, 0, nil, 0, 0) },
		func() { CrossCorrelateValidNaive(make([]float64, 4), 2, 2, make([]float64, 9), 3, 3) }, // kernel too big
		func() { CrossCorrelateValidNaive(make([]float64, 3), 2, 2, make([]float64, 1), 1, 1) }, // bad data len
		func() { CrossCorrelateValidNaive(make([]float64, 4), 2, 2, make([]float64, 2), 1, 1) }, // bad kernel len
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: correlation with an all-ones kernel equals the sliding-window sum.
func TestCrossCorrelateOnesKernelIsWindowSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	const n, m, ka, kb = 10, 12, 3, 4
	data := randSlice(rng, n*m)
	kernel := make([]float64, ka*kb)
	for i := range kernel {
		kernel[i] = 1
	}
	got := correlate(NewPlan2D(data, n, m), kernel, ka, kb)
	outCols := m - kb + 1
	for i := 0; i <= n-ka; i++ {
		for j := 0; j <= m-kb; j++ {
			var sum float64
			for u := 0; u < ka; u++ {
				for v := 0; v < kb; v++ {
					sum += data[(i+u)*m+j+v]
				}
			}
			if math.Abs(got[i*outCols+j]-sum) > 1e-8 {
				t.Fatalf("window sum at (%d,%d): %v vs %v", i, j, got[i*outCols+j], sum)
			}
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}
