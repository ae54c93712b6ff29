// Package core implements the paper's primary contribution: sketches for
// approximating Lp distances (0 < p ≤ 2) between subtables of massive
// tabular data.
//
// The pieces map onto the paper as follows:
//
//   - Sketcher — Section 3.2, Theorems 1–2. k random matrices with entries
//     drawn from a symmetric p-stable distribution; the sketch of a tile is
//     the vector of k dot products; the distance estimate is the median of
//     absolute sketch differences divided by the scaling factor B(p) (for
//     p = 2, the faster Euclidean special case the paper mentions in §4.4).
//
//   - PlaneSet / Sketcher.AllPositions — Section 3.3, Theorem 3. Sketch
//     entries for a fixed tile size at *every* position of the table,
//     computed as 2D cross-correlations in O(N log M) via FFT.
//
//   - Pool — Definition 4, Theorems 5–6. Plane sets for a canonical
//     collection of dyadic tile sizes, four independent sets per size, from
//     which a compound sketch of an *arbitrary* rectangle is assembled in
//     O(k) by summing four overlapping dyadic sketches.
//
//   - Cache — the "sketch on demand" scenario of Section 4.4: sketches are
//     computed naively the first time a tile is touched and reused for
//     every later comparison.
package core

import (
	"fmt"
	"math"

	"repro/internal/stable"
)

// KForAccuracy returns a sketch size k = O(ε⁻² log 1/δ) sufficient for a
// (1 ± ε) estimate with probability 1 − δ (Theorem 1). The constant 2
// follows the standard median-amplification analysis; the paper leaves the
// constant to experiment, and the accuracy experiments (fig2acc) sweep k
// directly.
func KForAccuracy(eps, delta float64) (int, error) {
	if !(eps > 0) || eps >= 1 {
		return 0, fmt.Errorf("core: eps %v outside (0, 1)", eps)
	}
	if !(delta > 0) || delta >= 1 {
		return 0, fmt.Errorf("core: delta %v outside (0, 1)", delta)
	}
	k := int(math.Ceil(2 / (eps * eps) * math.Log(1/delta)))
	if k < 1 {
		k = 1
	}
	// Odd k makes the median a single order statistic, slightly tightening
	// the estimator for heavy-tailed sketch differences.
	if k%2 == 0 {
		k++
	}
	return k, nil
}

// KForAccuracyAtP returns the sketch size sufficient for a (1 ± ε)
// estimate with probability 1 − δ at a SPECIFIC p, with the exact
// constant instead of KForAccuracy's generic one. The median estimator
// lands within (1±ε)·‖x−y‖p exactly when the empirical median of the k
// |stable| samples stays between the (1∓ε)·B(p) quantiles, so by the
// Chernoff bound on the binomial count below/above those quantiles,
//
//	k ≥ ln(2/δ) / (2γ²),  γ = min(F((1+ε)B) − ½, ½ − F((1−ε)B))
//
// with F the CDF of |X| computed by Fourier inversion. γ shrinks as
// p → 0 (the density flattens near the median), which is why the generic
// 2/ε²·ln(1/δ) is off by more than an order of magnitude at p = 0.5.
// Available for p ≥ 0.3 (the analytic-CDF range); smaller p falls back
// with an error so callers can choose KForAccuracy knowingly.
func KForAccuracyAtP(p, eps, delta float64) (int, error) {
	if !(eps > 0) || eps >= 1 {
		return 0, fmt.Errorf("core: eps %v outside (0, 1)", eps)
	}
	if !(delta > 0) || delta >= 1 {
		return 0, fmt.Errorf("core: delta %v outside (0, 1)", delta)
	}
	d, err := stable.New(p)
	if err != nil {
		return 0, err
	}
	if !d.HasAnalytic() {
		return 0, fmt.Errorf("core: exact k unavailable for p = %v (analytic CDF needs p ≥ 0.3); use KForAccuracy", p)
	}
	b := stable.MedianAbs(p)
	cdfAbs := func(x float64) (float64, error) {
		v, err := d.CDF(x)
		return 2*v - 1, err // |X| CDF of the symmetric law
	}
	qHi, err := cdfAbs((1 + eps) * b)
	if err != nil {
		return 0, err
	}
	qLo, err := cdfAbs((1 - eps) * b)
	if err != nil {
		return 0, err
	}
	gamma := math.Min(qHi-0.5, 0.5-qLo)
	if !(gamma > 0) {
		return 0, fmt.Errorf("core: degenerate quantile band for p = %v, eps = %v", p, eps)
	}
	k := int(math.Ceil(math.Log(2/delta) / (2 * gamma * gamma)))
	if k%2 == 0 {
		k++
	}
	return k, nil
}

// MedianPrefixBounds inverts the Chernoff argument of KForAccuracyAtP:
// instead of solving for the k that makes a given ε hold, it solves for
// the ε that b already-seen coordinates support. It returns
// multiplicative deviation factors (lo, hi) for the median estimator
// over a PREFIX of b i.i.d. sketch coordinates:
//
//	P[ median(|s₁..s_b|)/B(p) > hi·d ] ≤ delta
//	P[ median(|s₁..s_b|)/B(p) < lo·d ] ≤ delta
//
// where d is the true Lp distance. The estimator exceeds hi·d only when
// at least half the b samples of |d·X| exceed hi·d·B(p), a binomial
// event with per-sample probability ½ − γ, γ = F_abs(hi·B) − ½, so by
// Chernoff the γ that b samples certify at confidence 1−delta is
// γ_req = sqrt(ln(1/delta)/(2b)), and hi is the matching quantile of
// |X|; symmetrically for lo. When b is too small to certify anything
// (γ_req ≥ ½, the whole upper half of the CDF) the bounds degenerate to
// hi = +Inf and lo = 0, which callers must treat as "no cutoff yet".
//
// [lo·est, hi·est] inverted is a distribution-free interval for d from
// one sketch's own lanes — what ROADMAP item 1 (b)'s per-answer coverage
// metric is to report. Available for p ≥ 0.3 (the analytic-CDF range),
// like KForAccuracyAtP.
func MedianPrefixBounds(p float64, b int, delta float64) (lo, hi float64, err error) {
	if b < 1 {
		return 0, 0, fmt.Errorf("core: prefix length %d must be positive", b)
	}
	if !(delta > 0) || delta >= 1 {
		return 0, 0, fmt.Errorf("core: delta %v outside (0, 1)", delta)
	}
	d, err := stable.New(p)
	if err != nil {
		return 0, 0, err
	}
	if !d.HasAnalytic() {
		return 0, 0, fmt.Errorf("core: prefix bounds unavailable for p = %v (analytic CDF needs p ≥ 0.3)", p)
	}
	gammaReq := math.Sqrt(math.Log(1/delta) / (2 * float64(b)))
	scale := stable.MedianAbs(p)
	hi = math.Inf(1)
	lo = 0
	if gammaReq < 0.5 {
		// Quantile of |X| at ½ ± γ_req; the symmetric law gives
		// Q_abs(q) = Q((1+q)/2).
		qhi, err := d.Quantile((1 + (0.5 + gammaReq)) / 2)
		if err != nil {
			return 0, 0, err
		}
		qlo, err := d.Quantile((1 + (0.5 - gammaReq)) / 2)
		if err != nil {
			return 0, 0, err
		}
		hi = qhi / scale
		lo = qlo / scale
	}
	return lo, hi, nil
}

// L2PrefixBounds is MedianPrefixBounds for the p = 2 special case, where
// the estimator is sqrt(Σᵢ(Δsᵢ)²/b) over b standard-normal sketch
// differences: (est/d)² is χ²_b/b, so the Chernoff bound
//
//	P[χ²_b/b ≥ t] ≤ exp(−(b/2)(t − 1 − ln t)),  t > 1
//	P[χ²_b/b ≤ t] ≤ exp(−(b/2)(t − 1 − ln t)),  t < 1
//
// inverts by bisection on the (monotone on each side of 1) exponent.
// Degenerate prefixes (b too small for the requested delta) return
// hi = +Inf / lo = 0, as in MedianPrefixBounds.
func L2PrefixBounds(b int, delta float64) (lo, hi float64, err error) {
	if b < 1 {
		return 0, 0, fmt.Errorf("core: prefix length %d must be positive", b)
	}
	if !(delta > 0) || delta >= 1 {
		return 0, 0, fmt.Errorf("core: delta %v outside (0, 1)", delta)
	}
	target := 2 * math.Log(1/delta) / float64(b) // solve t − 1 − ln t = target
	f := func(t float64) float64 { return t - 1 - math.Log(t) }
	bisect := func(a, c float64) float64 {
		for i := 0; i < 200; i++ {
			m := (a + c) / 2
			if f(m) < target {
				a = m
			} else {
				c = m
			}
		}
		return (a + c) / 2
	}
	// Upper side: t > 1, f increasing and unbounded.
	chi := 2.0
	for f(chi) < target {
		chi *= 2
	}
	hi = math.Sqrt(bisect(1, chi))
	// Lower side: t < 1, f decreasing from +Inf (t→0) to 0 (t→1). When
	// even t = 1e-12 cannot reach the target exponent the certified lower
	// factor is indistinguishable from 0.
	lo = 0
	if f(1e-12) > target {
		a, c := 1e-12, 1.0 // f(a) > target ≥ f(c): bisect the decreasing side
		for i := 0; i < 200; i++ {
			m := (a + c) / 2
			if f(m) > target {
				a = m
			} else {
				c = m
			}
		}
		lo = math.Sqrt((a + c) / 2)
	}
	return lo, hi, nil
}
