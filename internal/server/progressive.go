package server

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/prune"
	"repro/internal/table"
)

// Plan returns a validated prune.Plan for the failure budget delta —
// what ProgressiveNearest / ProgressiveAssign take for mode=prune
// semantics outside the HTTP layer (benchmarks, embedding callers). The
// answer does not depend on it: mode=prune runs the exact engine.
func (sn *Snapshot) Plan(delta float64) (*prune.Plan, error) { return prune.NewPlan(delta) }

// progressiveScan answers a nearest-candidate query through the
// progressive search (internal/prune), the one engine of the exact and
// pruned tiers: each candidate's distance is first bounded from below by
// the marginal summaries BuildSnapshot kept — from the tiles' totals
// (lpnorm.TotalLowerBound, one number a candidate), then from their row
// sums where the total did not decide (lpnorm.MarginalLowerBound,
// O(TileRows)) — and only the candidates the bounds cannot rule out have
// their cells read, row by row, straight from the table. The answer
// (index, distance, and therefore response bytes) is provably identical
// to a brute-force scan at any worker count, and no sketch is consulted.
func (sn *Snapshot) progressiveScan(ctx context.Context, assign bool, q table.Rect, workers int) (int, float64, prune.Stats, error) {
	set, err := sn.querySet(assign, q)
	if err != nil {
		return 0, 0, prune.Stats{}, err
	}
	ms := q.Rows + 2
	// A query that is a grid tile has its summary in the snapshot.
	self := sn.tileIndex(q)
	var qm []float64
	if self >= 0 {
		qm = sn.tileMarginals[self*ms : (self+1)*ms]
	} else {
		mp, _ := sn.mgBuf.Get().(*[]float64)
		if mp == nil {
			mp = new([]float64)
		}
		defer sn.mgBuf.Put(mp)
		*mp = sn.marginals((*mp)[:0], q)
		qm = *mp
	}
	src := prune.Source{
		N:    len(set.rects),
		Rows: q.Rows, Cols: q.Cols,
		RowPowSum: func(i, r int) float64 {
			return sn.lp.DistPowSum(sn.rectRow(set.rects[i], r), sn.rectRow(q, r))
		},
		LowerBound: func(i int) float64 {
			return sn.lp.MarginalLowerBound(qm, set.marginals[i*ms:(i+1)*ms], q.Cols)
		},
		BoundCoords: q.Rows,
		TotalBound: func(i int) float64 {
			return sn.lp.TotalLowerBound(qm, set.marginals[i*ms:(i+1)*ms], q.Cols)
		},
		Skip: -1,
	}
	if set.skipSelf {
		src.Skip = self
	}
	idx, sum, stats, err := prune.Nearest(ctx, src, prune.Config{Workers: workers})
	if err != nil {
		if errors.Is(err, prune.ErrNoCandidates) {
			err = fmt.Errorf("no candidate %s for %v", set.what, q)
		}
		return 0, 0, stats, err
	}
	return idx, math.Pow(sum, 1/sn.lp.Value()), stats, nil
}

// ProgressiveNearest is the progressive scan over the grid tiles
// (excluding q's own position): ExactNearest with the statistics. A
// non-nil plan and epsilon are mode=prune's knobs, validated
// (prune.CheckKnobs) and otherwise without effect.
func (sn *Snapshot) ProgressiveNearest(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (int, float64, prune.Stats, error) {
	if err := prune.CheckKnobs(plan, epsilon); err != nil {
		return 0, 0, prune.Stats{}, err
	}
	return sn.progressiveScan(ctx, false, q, workers)
}

// ProgressiveAssign is the progressive scan over the cluster medoids:
// ExactAssign with the statistics, the knobs as ProgressiveNearest's.
func (sn *Snapshot) ProgressiveAssign(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (cluster, medoid int, d float64, stats prune.Stats, err error) {
	if err := prune.CheckKnobs(plan, epsilon); err != nil {
		return 0, 0, 0, prune.Stats{}, err
	}
	c, d, stats, err := sn.progressiveScan(ctx, true, q, workers)
	if err != nil {
		return 0, 0, 0, stats, err
	}
	return c, sn.medoids[c], d, stats, nil
}
