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

// nearestSource assembles the progressive engine's view of the tile
// grid for query q: the precomputed per-tile pool sketches, q's own
// compound sketch, and exact row power sums read straight from the
// table. q's own grid position (if it is one) is skipped, mirroring
// ExactNearest.
func (sn *Snapshot) nearestSource(q table.Rect, qsk []float64) prune.Source {
	return prune.Source{
		K: sn.pool.K(), N: len(sn.tiles), QSketch: qsk,
		Sketch:        func(i int) []float64 { return sn.sketches[i] },
		CompoundSlack: sn.compoundSlack,
		Rows:          q.Rows, Cols: q.Cols,
		RowPowSum: func(i, r int) float64 {
			return sn.lp.DistPowSum(sn.rectRow(sn.tiles[i], r), sn.rectRow(q, r))
		},
		Estimator: sn.pool.Estimator(), Scale: sn.pool.Scale(),
		Skip: sn.tileIndex(q),
	}
}

// ProgressiveNearest answers the nearest-tile query through the
// coarse-to-fine progressive scan. plan == nil selects the exact
// margin: the answer (index, distance, and therefore response bytes)
// is provably identical to ExactNearest at any worker count. A non-nil
// plan enables confidence-margin elimination at the plan's delta with
// epsilon extra screen headroom; the true nearest tile is returned
// with probability ≥ 1 − delta.
func (sn *Snapshot) ProgressiveNearest(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (int, float64, prune.Stats, error) {
	if err := sn.checkTileSized(q); err != nil {
		return 0, 0, prune.Stats{}, err
	}
	bq := sn.getSketchBuf()
	defer sn.putSketchBuf(bq)
	qsk, err := sn.pool.Sketch(q, *bq)
	if err != nil {
		return 0, 0, prune.Stats{}, err
	}
	src := sn.nearestSource(q, qsk)
	idx, sum, stats, err := prune.Nearest(ctx, src, prune.Config{
		Plan: plan, Epsilon: epsilon, Workers: workers,
	})
	if err != nil {
		if errors.Is(err, prune.ErrNoCandidates) {
			// The same degenerate grid makes ExactNearest fail; keep the
			// wire-visible message identical.
			err = fmt.Errorf("no candidate tile for %v", q)
		}
		return 0, 0, stats, err
	}
	return idx, math.Pow(sum, 1/sn.lp.Value()), stats, nil
}

// ProgressiveAssign is ProgressiveNearest over the cluster medoids:
// exact-margin answers are identical to ExactAssign, confidence-margin
// answers return the true nearest medoid with probability ≥ 1 − delta.
func (sn *Snapshot) ProgressiveAssign(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (cluster, medoid int, d float64, stats prune.Stats, err error) {
	if err := sn.checkAssign(q); err != nil {
		return 0, 0, 0, prune.Stats{}, err
	}
	bq := sn.getSketchBuf()
	defer sn.putSketchBuf(bq)
	qsk, err := sn.pool.Sketch(q, *bq)
	if err != nil {
		return 0, 0, 0, prune.Stats{}, err
	}
	src := prune.Source{
		K: sn.pool.K(), N: len(sn.medoidRects), QSketch: qsk,
		Sketch:        func(c int) []float64 { return sn.sketches[sn.medoids[c]] },
		CompoundSlack: sn.compoundSlack,
		Rows:          q.Rows, Cols: q.Cols,
		RowPowSum: func(c, r int) float64 {
			return sn.lp.DistPowSum(sn.rectRow(sn.medoidRects[c], r), sn.rectRow(q, r))
		},
		Estimator: sn.pool.Estimator(), Scale: sn.pool.Scale(),
		Skip: -1, // assignment never excludes a medoid, even q's own tile
	}
	c, sum, stats, err := prune.Nearest(ctx, src, prune.Config{
		Plan: plan, Epsilon: epsilon, Workers: workers,
	})
	if err != nil {
		if errors.Is(err, prune.ErrNoCandidates) {
			// As in ProgressiveNearest: ExactAssign's message on the wire.
			err = fmt.Errorf("no candidate medoid for %v", q)
		}
		return 0, 0, 0, stats, err
	}
	return c, sn.medoids[c], math.Pow(sum, 1/sn.lp.Value()), stats, nil
}
