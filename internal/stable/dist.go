package stable

import (
	"fmt"
	"math"

	"repro/internal/integrate"
)

// This file provides the analytic distribution function of the symmetric
// α-stable laws the sketches sample from — the numeric substrate Go lacks.
// It follows from Fourier inversion of the characteristic function
// φ(t) = exp(-|t|^α):
//
//	cdf(x) = 1/2 + (1/π) ∫₀^∞ sin(xt)/t·e^(-t^α) dt
//
// The integrand oscillates, so it is integrated half-period by
// half-period (an alternating series whose remainder is bounded by the
// first omitted term) with adaptive Simpson quadrature inside each piece.
// Closed forms are used at α = 1 (Cauchy) and α = 2 (standard normal —
// note Sample's N(0,1) convention at α = 2, documented in New).
//
// Accuracy degrades and cost grows as α → 0 (the envelope e^(-t^α) decays
// ever more slowly); the analytic path is enabled for α ≥ minAnalyticAlpha
// and callers below that range fall back to Monte-Carlo estimates.

// minAnalyticAlpha is the smallest index for which the Fourier-integral
// evaluation is both fast and accurate to ~1e-9.
const minAnalyticAlpha = 0.3

// cdfTol is the absolute error target of CDF evaluation.
const cdfTol = 1e-10

// HasAnalytic reports whether CDF and Quantile are available for this
// distribution's index.
func (d *Dist) HasAnalytic() bool { return d.alpha >= minAnalyticAlpha }

// CDF evaluates the distribution function at x.
func (d *Dist) CDF(x float64) (float64, error) {
	switch d.alpha {
	case 2:
		return 0.5 * math.Erfc(-x/math.Sqrt2), nil
	case 1:
		return 0.5 + math.Atan(x)/math.Pi, nil
	}
	if !d.HasAnalytic() {
		return 0, fmt.Errorf("stable: analytic CDF unavailable for alpha %v < %v",
			d.alpha, minAnalyticAlpha)
	}
	if x == 0 {
		return 0.5, nil
	}
	ax := math.Abs(x)
	var f float64
	if d.alpha < 1 && math.Pow(ax, d.alpha) >= tailSeriesFrom {
		f = 1 - upperTail(d.alpha, ax)
	} else {
		v, err := d.fourier(ax)
		if err != nil {
			return 0, err
		}
		f = 0.5 + v/math.Pi
	}
	if f > 1 {
		f = 1
	}
	if x < 0 {
		f = 1 - f
	}
	return f, nil
}

// fourier evaluates ∫₀^∞ sin(xt)/t·e^(-t^α) dt, the CDF's kernel.
func (d *Dist) fourier(x float64) (float64, error) {
	alpha := d.alpha
	integrand := func(t float64) float64 {
		if t == 0 {
			return x // lim sin(xt)/t
		}
		return math.Sin(x*t) / t * math.Exp(-math.Pow(t, alpha))
	}
	// Envelope cutoff: beyond tEnv the integrand is below 1e-14 in
	// magnitude and the alternating tail is negligible.
	tEnv := math.Pow(32.3, 1/alpha) // e^(-32.3) ≈ 9e-15
	if x == 0 {
		return 0, nil
	}
	halfPeriod := math.Pi / x
	if halfPeriod >= tEnv {
		// No oscillation before the envelope dies: one adaptive sweep.
		return integrate.Adaptive(integrand, 0, tEnv, cdfTol)
	}
	// Piece boundaries at the integrand's zeros: sin(xt) vanishes at jπ/x.
	total, err := integrate.Adaptive(integrand, 0, halfPeriod, cdfTol)
	if err != nil {
		return 0, err
	}
	const maxPieces = 2_000_000
	lo := halfPeriod
	for j := 0; j < maxPieces; j++ {
		hi := lo + halfPeriod
		piece, err := integrate.Adaptive(integrand, lo, hi, cdfTol/4)
		if err != nil {
			return 0, err
		}
		total += piece
		// Alternating series: the remainder is bounded by the next term,
		// which is bounded by the envelope at hi times the piece width,
		// divided by hi for the kernel's 1/t.
		bound := math.Exp(-math.Pow(hi, alpha)) * halfPeriod / hi
		if bound < cdfTol || hi > tEnv {
			return total, nil
		}
		lo = hi
	}
	return 0, fmt.Errorf("stable: Fourier integral did not converge for alpha %v, x %v", alpha, x)
}

// tailSeriesFrom is the x^α from which the CDF of an α < 1 law is summed
// from its tail series instead of Fourier-inverted: there the terms fall
// by more than a factor of ten from the first one on, so nothing cancels.
const tailSeriesFrom = 16

// upperTail evaluates 1 − F(x), x > 0, for α < 1 by the series
//
//	(1/π) Σ_{n≥1} (−1)^{n+1} · Γ(nα)/n! · sin(nπα/2) · x^{−nα}
//
// which converges for every x > 0 when α < 1 (Feller II, XVII.6) and
// costs a handful of terms where the Fourier integrand needs millions of
// half-periods: a heavy tail puts the quantiles near level 1 at x ≫ 10⁴.
func upperTail(alpha, x float64) float64 {
	lx := math.Log(x)
	var sum float64
	for n := 1; n <= 200; n++ {
		na := float64(n) * alpha
		lg, _ := math.Lgamma(na)
		lf, _ := math.Lgamma(float64(n) + 1)
		// The sine vanishes where nα is even, so the stop looks at the
		// coefficient alone.
		coef := math.Exp(lg - lf - na*lx)
		if n%2 == 0 {
			coef = -coef
		}
		sum += coef * math.Sin(na*math.Pi/2)
		if math.Abs(coef) < 1e-17*math.Abs(sum) {
			break
		}
	}
	return sum / math.Pi
}

// Quantile returns the q-quantile (inverse CDF) for q ∈ (0, 1).
func (d *Dist) Quantile(q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("stable: quantile level %v outside (0, 1)", q)
	}
	switch d.alpha {
	case 2:
		// Invert via Brent on the closed-form CDF (erfc has no stdlib
		// inverse); bracket grows below.
	case 1:
		return math.Tan(math.Pi * (q - 0.5)), nil
	}
	if !d.HasAnalytic() {
		return 0, fmt.Errorf("stable: analytic quantile unavailable for alpha %v < %v",
			d.alpha, minAnalyticAlpha)
	}
	if q == 0.5 {
		return 0, nil
	}
	// By symmetry solve in the upper half and mirror.
	upper := q
	mirror := false
	if q < 0.5 {
		upper = 1 - q
		mirror = true
	}
	g := func(x float64) float64 {
		v, err := d.CDF(x)
		if err != nil {
			return math.NaN()
		}
		return v - upper
	}
	// Expand the bracket geometrically; heavy tails can push quantiles far
	// out for small α.
	lo, hi := 0.0, 1.0
	for i := 0; i < 200 && g(hi) < 0; i++ {
		lo = hi
		hi *= 2
	}
	x, err := integrate.Brent(g, lo, hi, 1e-11)
	if err != nil {
		return 0, err
	}
	if mirror {
		x = -x
	}
	return x, nil
}

// MedianAbsAnalytic computes B(α) = median |X| exactly as the 0.75
// quantile of the symmetric law (P(|X| ≤ m) = 2F(m) − 1 = 1/2). It is
// available for α ≥ minAnalyticAlpha; MedianAbs dispatches to it and
// falls back to Monte Carlo below the analytic range.
func MedianAbsAnalytic(alpha float64) (float64, error) {
	d, err := New(alpha)
	if err != nil {
		return 0, err
	}
	if !d.HasAnalytic() {
		return 0, fmt.Errorf("stable: analytic B(p) unavailable for alpha %v < %v",
			alpha, minAnalyticAlpha)
	}
	return d.Quantile(0.75)
}
