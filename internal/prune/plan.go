// Package prune implements progressive nearest-candidate search: the
// argmin of an exact Lp distance over N candidates, reading as little of
// the table as can be proved safe.
//
// Two margins are supported:
//
//   - Exact margin (Config.Plan == nil): no sketch is consulted. Every
//     candidate's sound lower bound is taken first (Source.LowerBound —
//     in the serving layer a tile's row sums, O(Rows) against O(Rows·Cols)
//     cells), the candidate of the smallest bound is refined in full, a
//     candidate whose bound exceeds the best completed sum is never read,
//     and the rest are refined with the monotone partial-sum cutoff (row
//     power sums are non-negative, so a partial sum strictly above the
//     best completed distance can never win, even on ties). Results are
//     provably byte-identical to the full scan.
//
//   - Confidence margin (Config.Plan != nil): the ADSampling idea applied
//     to the paper's stable-sketch estimator. The k sketch coordinates of
//     a candidate are i.i.d. evidence for the median (or, at p = 2, the
//     root-mean-square) distance estimator, so they can be consumed block
//     by block with a hypothesis-test cutoff: a candidate whose partial
//     estimate exceeds the best full estimate by the margin derived from
//     the stable-CDF Chernoff bounds (core.MedianPrefixBounds /
//     core.L2PrefixBounds, the inverse of KForAccuracyAtP) is eliminated
//     without its remaining coordinates; under the median estimator the
//     test is a count of lanes beyond one threshold, never a selection.
//     Survivors go through the same refinement. The returned candidate is
//     the exact nearest among survivors, and the true nearest survives
//     with probability ≥ 1 − delta (the statistical acceptance tests
//     measure this recall).
//
// The engine is deterministic at any worker count: screen decisions
// depend on one final reference, refinement proceeds in fixed-size
// chunks whose cutoff is the best from PREVIOUS chunks only, and chunk
// results merge serially in index order — so the answer, the
// per-response statistics, and therefore the serialized HTTP response
// bytes never depend on scheduling.
package prune

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Plan precomputes the confidence-margin cutoff thresholds for one
// (p, k, estimator, block, delta) configuration. Plans are immutable and
// safe for concurrent use; servers cache them per snapshot and delta.
//
// The total failure budget delta is split by union bound: half over the
// per-checkpoint upward-deviation tests applied to any one candidate
// (the recall guarantee only needs the TRUE nearest candidate to pass
// its own tests), and half for the downward deviation of the reference
// best estimate. See DESIGN.md §11 for the full derivation.
type Plan struct {
	p         float64
	k         int
	block     int
	delta     float64
	estimator core.Estimator

	checkpoints []int     // strictly increasing prefix lengths, last == k
	hi          []float64 // upper deviation factor at checkpoints[i] (+Inf = no cutoff yet)
	loK         float64   // lower deviation factor at the full k (0 = uncertified)
}

// DefaultBlock is the coordinate block size NewPlan uses when the caller
// passes block ≤ 0: k/8 rounded up, floored at 8, so a plan has at most
// eight hypothesis-test checkpoints and small k degenerates gracefully
// to a single full evaluation.
func DefaultBlock(k int) int {
	b := (k + 7) / 8
	if b < 8 {
		b = 8
	}
	return b
}

// NewPlan derives the checkpoint thresholds for sketch size k at Lp
// exponent p under the given estimator (core.EstimatorMedian or
// core.EstimatorL2; core.EstimatorAuto resolves as the Sketcher does).
// block ≤ 0 selects DefaultBlock(k). delta is the total abandonment
// failure budget per query, in (0, 1). The median flavor needs the
// analytic stable CDF (p ≥ 0.3); NewPlan returns an error below that.
func NewPlan(p float64, k int, estimator core.Estimator, block int, delta float64) (*Plan, error) {
	if k < 1 {
		return nil, fmt.Errorf("prune: sketch size k = %d must be positive", k)
	}
	if !(delta > 0) || delta >= 1 {
		return nil, fmt.Errorf("prune: delta %v outside (0, 1)", delta)
	}
	if estimator == core.EstimatorAuto {
		if p == 2 {
			estimator = core.EstimatorL2
		} else {
			estimator = core.EstimatorMedian
		}
	}
	if estimator == core.EstimatorL2 && p != 2 {
		return nil, fmt.Errorf("prune: EstimatorL2 requires p = 2, got p = %v", p)
	}
	if block <= 0 {
		block = DefaultBlock(k)
	}
	pl := &Plan{p: p, k: k, block: block, delta: delta, estimator: estimator}

	for b := block; b < k; b += block {
		pl.checkpoints = append(pl.checkpoints, b)
	}
	pl.checkpoints = append(pl.checkpoints, k)
	m := len(pl.checkpoints)

	// delta/2 spread evenly over the checkpoints (upward tests on one
	// candidate), delta/2 on the reference's downward deviation.
	deltaEach := delta / (2 * float64(m))
	deltaLo := delta / 2

	pl.hi = make([]float64, m)
	switch estimator {
	case core.EstimatorMedian:
		for i, b := range pl.checkpoints {
			_, hi, err := core.MedianPrefixBounds(p, b, deltaEach)
			if err != nil {
				return nil, err
			}
			pl.hi[i] = hi
		}
		lo, _, err := core.MedianPrefixBounds(p, k, deltaLo)
		if err != nil {
			return nil, err
		}
		pl.loK = lo
	case core.EstimatorL2:
		for i, b := range pl.checkpoints {
			_, hi, err := core.L2PrefixBounds(b, deltaEach)
			if err != nil {
				return nil, err
			}
			pl.hi[i] = hi
		}
		lo, _, err := core.L2PrefixBounds(k, deltaLo)
		if err != nil {
			return nil, err
		}
		pl.loK = lo
	default:
		return nil, fmt.Errorf("prune: unknown estimator %v", estimator)
	}
	return pl, nil
}

// K returns the sketch size the plan was built for.
func (pl *Plan) K() int { return pl.k }

// Block returns the coordinate block size between checkpoints.
func (pl *Plan) Block() int { return pl.block }

// Delta returns the plan's total abandonment failure budget.
func (pl *Plan) Delta() float64 { return pl.delta }

// Estimator returns the resolved estimator flavor.
func (pl *Plan) Estimator() core.Estimator { return pl.estimator }

// Checkpoints returns the prefix lengths at which the engine tests the
// cutoff (a copy; the last entry is always k).
func (pl *Plan) Checkpoints() []int {
	return append([]int(nil), pl.checkpoints...)
}

// HiAt returns the upper deviation factor at checkpoint index j: a
// partial estimate above HiAt(j)·bound certifies (at the per-checkpoint
// confidence) a true distance above bound. +Inf means the prefix is too
// short to certify anything.
func (pl *Plan) HiAt(j int) float64 { return pl.hi[j] }

// LoK returns the full-k lower deviation factor: the full estimate is
// at least LoK()·d with probability ≥ 1 − delta/2. 0 means k is too
// small to certify a lower bound, which disables elimination entirely
// (every candidate survives — slower, never wrong beyond delta).
func (pl *Plan) LoK() float64 { return pl.loK }

// degenerate reports whether the plan can never eliminate anything
// (loK == 0 makes every prune reference infinite).
func (pl *Plan) degenerate() bool { return !(pl.loK > 0) }

// pruneRef converts the current best full estimate into the reference
// the checkpoint tests compare against: a candidate whose partial
// estimate exceeds HiAt(j)·pruneRef is certified farther than
// (1+epsilon)·bestEst/loK in TRUE distance — which, by the reference's
// own deviation bound, is above the best candidate's true distance —
// after discounting the worst-case compound-sketch overcount slack.
func (pl *Plan) pruneRef(bestEst, epsilon, compoundSlack float64) float64 {
	if math.IsInf(bestEst, 1) || pl.degenerate() {
		return math.Inf(1)
	}
	return compoundSlack * (1 + epsilon) * bestEst / pl.loK
}
