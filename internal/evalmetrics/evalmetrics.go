// Package evalmetrics implements the accuracy measures of Section 4.1 of
// the paper (Definitions 7–11): cumulative and average correctness of
// sketched distances, pairwise comparison correctness, confusion-matrix
// agreement between two clusterings, and the spread-based clustering
// quality ratio.
package evalmetrics

import (
	"fmt"
	"math"

	"repro/internal/assign"
	"repro/internal/parallel"
)

// evalParallelMin is the experiment count above which the pairwise
// metrics fan out over GOMAXPROCS workers; below it the fan-out costs
// more than the loop. Results never depend on the choice: parallel.Sum
// reduces in fixed-size blocks whose order is worker-count-independent,
// and parallel.Count is integer arithmetic.
const evalParallelMin = 4096

func evalWorkers(n int) int {
	if n < evalParallelMin {
		return 1
	}
	return parallel.Resolve(0)
}

// Cumulative is Definition 7: Σ estimated / Σ exact over a set of
// experiments — "in the long run, how accurate the sketches are".
// A perfect estimator scores 1.0.
func Cumulative(est, exact []float64) (float64, error) {
	if err := checkPair(est, exact); err != nil {
		return 0, err
	}
	w := evalWorkers(len(est))
	se := parallel.Sum(w, len(est), func(i int) float64 { return est[i] })
	sx := parallel.Sum(w, len(exact), func(i int) float64 { return exact[i] })
	if sx == 0 {
		return 0, fmt.Errorf("evalmetrics: exact distances sum to zero")
	}
	return se / sx, nil
}

// Average is Definition 8: 1 − (1/k)·Σ |1 − estᵢ/exactᵢ|, the mean
// per-experiment relative agreement. A perfect estimator scores 1.0.
// Experiments with exact distance zero are rejected (the ratio is
// undefined there).
func Average(est, exact []float64) (float64, error) {
	if err := checkPair(est, exact); err != nil {
		return 0, err
	}
	w := evalWorkers(len(est))
	// Reject zero exact distances up front so the parallel reduction
	// below never divides by zero; the scan is cheap relative to it.
	if parallel.Count(w, len(exact), func(i int) bool { return exact[i] == 0 }) > 0 {
		for i := range exact {
			if exact[i] == 0 {
				return 0, fmt.Errorf("evalmetrics: exact distance zero at experiment %d", i)
			}
		}
	}
	sum := parallel.Sum(w, len(est), func(i int) float64 {
		return math.Abs(1 - est[i]/exact[i])
	})
	return 1 - sum/float64(len(est)), nil
}

func checkPair(est, exact []float64) error {
	if len(est) == 0 {
		return fmt.Errorf("evalmetrics: no experiments")
	}
	if len(est) != len(exact) {
		return fmt.Errorf("evalmetrics: %d estimates vs %d exact values", len(est), len(exact))
	}
	return nil
}

// Triple is one pairwise-comparison experiment: the distances from a test
// point X to two candidates Y and Z, measured exactly and by sketch.
type Triple struct {
	ExactXY, ExactXZ float64
	EstXY, EstXZ     float64
}

// Pairwise is Definition 9: the fraction of experiments in which the
// sketched comparison "is X closer to Y or to Z?" agrees with the exact
// comparison. The paper's xor formulation counts exactly the agreements:
// xor(exact says Y, sketch says Z) is 1 only on disagreement.
func Pairwise(triples []Triple) (float64, error) {
	if len(triples) == 0 {
		return 0, fmt.Errorf("evalmetrics: no triples")
	}
	correct := parallel.Count(evalWorkers(len(triples)), len(triples), func(i int) bool {
		tr := triples[i]
		return (tr.ExactXY < tr.ExactXZ) == (tr.EstXY < tr.EstXZ)
	})
	return float64(correct) / float64(len(triples)), nil
}

// Confusion builds the k×k confusion matrix between two labelings of the
// same objects: confusion[i][j] counts objects labeled i by a and j by b
// (Definition 10's underlying construct).
func Confusion(a, b []int, k int) ([][]float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return nil, fmt.Errorf("evalmetrics: labelings of length %d and %d", len(a), len(b))
	}
	if k <= 0 {
		return nil, fmt.Errorf("evalmetrics: k = %d", k)
	}
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
	}
	for i := range a {
		if a[i] < 0 || a[i] >= k || b[i] < 0 || b[i] >= k {
			return nil, fmt.Errorf("evalmetrics: label out of range at %d: (%d, %d)", i, a[i], b[i])
		}
		m[a[i]][b[i]]++
	}
	return m, nil
}

// Agreement is Definition 10: the fraction of objects on the diagonal of
// the confusion matrix after the clusters of b have been optimally matched
// to the clusters of a (Hungarian assignment maximizing the diagonal).
// Cluster labels are arbitrary, so matching first is what makes the
// diagonal meaningful.
func Agreement(a, b []int, k int) (float64, error) {
	m, err := Confusion(a, b, k)
	if err != nil {
		return 0, err
	}
	match, err := assign.MaxProfit(m)
	if err != nil {
		return 0, err
	}
	var diag float64
	for i, j := range match {
		diag += m[i][j]
	}
	return diag / float64(len(a)), nil
}

// Quality is Definition 11's clustering-quality measure, reported so that
// values above 1.0 mean the sketched clustering is BETTER (smaller total
// spread) than the exact clustering, matching the paper's narration
// ("quality rating greater than 100%" for sketch improvements):
//
//	Quality = Σ spread_exact(i) / Σ spread_sketch(i)
//
// (The displayed formula in the paper inverts this ratio, which would
// contradict its own discussion; we follow the discussion.)
// Both spreads must be computed with the same exact distance function
// over the same points.
func Quality(spreadExact, spreadSketch float64) (float64, error) {
	if spreadExact < 0 || spreadSketch < 0 {
		return 0, fmt.Errorf("evalmetrics: negative spread")
	}
	if spreadSketch == 0 {
		if spreadExact == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	return spreadExact / spreadSketch, nil
}
