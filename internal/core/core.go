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
