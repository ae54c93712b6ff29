package server

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/prune"
	"repro/internal/table"
)

// Plan returns the snapshot's confidence-margin prune.Plan for the
// given total failure budget delta (memoized per snapshot) — the plan
// to hand ProgressiveNearest / ProgressiveAssign for mode=prune
// semantics outside the HTTP layer (benchmarks, embedding callers).
func (sn *Snapshot) Plan(delta float64) (*prune.Plan, error) { return sn.planFor(delta) }

// planFor memoizes the confidence-margin prune.Plan for one delta. The
// plan depends only on the pool's (p, k, estimator) — fixed per
// snapshot — so the cache key is delta alone. Safe for concurrent use;
// a losing racer simply recomputes the identical immutable plan.
func (sn *Snapshot) planFor(delta float64) (*prune.Plan, error) {
	sn.planMu.Lock()
	defer sn.planMu.Unlock()
	if pl, ok := sn.plans[delta]; ok {
		return pl, nil
	}
	pl, err := prune.NewPlan(sn.pool.P(), sn.pool.K(), sn.pool.Estimator(), 0, delta)
	if err != nil {
		return nil, err
	}
	if sn.plans == nil {
		sn.plans = make(map[float64]*prune.Plan)
	}
	sn.plans[delta] = pl
	return pl, nil
}

// progressiveScan answers a nearest-candidate query through the
// coarse-to-fine progressive scan (internal/prune): the candidates'
// precomputed pool sketches and q's own compound sketch order (and, at
// a confidence margin, screen) the candidates, exact row power sums read
// straight from the table refine the survivors. plan == nil selects the
// exact margin: the answer (index, distance, and therefore response
// bytes) is provably identical to exactScan at any worker count. A
// non-nil plan enables confidence-margin elimination at the plan's delta
// with epsilon extra screen headroom; the true nearest candidate is
// returned with probability ≥ 1 − delta.
func (sn *Snapshot) progressiveScan(ctx context.Context, assign bool, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (int, float64, prune.Stats, error) {
	set, err := sn.querySet(assign, q)
	if err != nil {
		return 0, 0, prune.Stats{}, err
	}
	bq := sn.getSketchBuf()
	defer sn.putSketchBuf(bq)
	qsk, err := sn.pool.Sketch(q, *bq)
	if err != nil {
		return 0, 0, prune.Stats{}, err
	}
	k := sn.pool.K()
	src := prune.Source{
		K: k, N: len(set.rects), QSketch: qsk,
		Sketch:        func(i int) []float64 { return set.sketches[i*k : (i+1)*k] },
		CompoundSlack: sn.compoundSlack,
		Rows:          q.Rows, Cols: q.Cols,
		RowPowSum: func(i, r int) float64 {
			return sn.lp.DistPowSum(sn.rectRow(set.rects[i], r), sn.rectRow(q, r))
		},
		Estimator: sn.pool.Estimator(), Scale: sn.pool.Scale(),
		Skip: -1,
	}
	if set.skipSelf {
		src.Skip = sn.tileIndex(q)
	}
	idx, sum, stats, err := prune.Nearest(ctx, src, prune.Config{
		Plan: plan, Epsilon: epsilon, Workers: workers,
	})
	if err != nil {
		if errors.Is(err, prune.ErrNoCandidates) {
			// The same degenerate set makes exactScan fail; keep the
			// wire-visible message identical.
			err = fmt.Errorf("no candidate %s for %v", set.what, q)
		}
		return 0, 0, stats, err
	}
	return idx, math.Pow(sum, 1/sn.lp.Value()), stats, nil
}

// ProgressiveNearest is the progressive scan over the grid tiles
// (excluding q's own position): exact-margin answers are identical to
// ExactNearest.
func (sn *Snapshot) ProgressiveNearest(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (int, float64, prune.Stats, error) {
	return sn.progressiveScan(ctx, false, q, workers, plan, epsilon)
}

// ProgressiveAssign is the progressive scan over the cluster medoids:
// exact-margin answers are identical to ExactAssign.
func (sn *Snapshot) ProgressiveAssign(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (cluster, medoid int, d float64, stats prune.Stats, err error) {
	c, d, stats, err := sn.progressiveScan(ctx, true, q, workers, plan, epsilon)
	if err != nil {
		return 0, 0, 0, stats, err
	}
	return c, sn.medoids[c], d, stats, nil
}
