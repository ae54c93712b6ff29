package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/prune"
	"repro/internal/table"
)

// Plan returns the snapshot's confidence-margin prune.Plan for the
// given total failure budget delta (memoized per snapshot) — the plan
// to hand ProgressiveNearest / ProgressiveAssign for mode=prune
// semantics outside the HTTP layer (benchmarks, embedding callers).
func (sn *Snapshot) Plan(delta float64) (*prune.Plan, error) { return sn.planFor(delta) }

// maxPlans caps a snapshot's plan memo: a handful of deltas a client
// actually uses. A plan past the cap is computed for its request and not
// kept, so a client sweeping delta cannot grow the snapshot — except the
// default delta's, which is kept whenever it arrives, so that a sweep
// cannot crowd out the plan nearly every request wants.
const maxPlans = 8

// planMemo memoizes confidence-margin plans by delta — the one mutable
// corner of a Snapshot. Plans are immutable and a deterministic function
// of (pool, delta), so memoization never changes an answer.
type planMemo struct {
	mu    sync.Mutex
	plans map[float64]*prune.Plan
}

// get returns the memoized plan for delta, or builds one. The lock covers
// the map and never build (a plan at p = 0.5 takes tens of milliseconds),
// so a request for a memoized delta does not wait on another's new one,
// and a losing racer simply builds the identical plan again.
func (m *planMemo) get(delta float64, build func() (*prune.Plan, error)) (*prune.Plan, error) {
	m.mu.Lock()
	pl, ok := m.plans[delta]
	m.mu.Unlock()
	if ok {
		return pl, nil
	}
	pl, err := build()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plans == nil {
		m.plans = make(map[float64]*prune.Plan)
	}
	if len(m.plans) < maxPlans || delta == DefaultPruneDelta {
		m.plans[delta] = pl
	}
	return pl, nil
}

// planFor is the snapshot's plan for one delta. The plan depends only on
// the pool's (p, k, estimator) — fixed per snapshot — so the memo key is
// delta alone.
func (sn *Snapshot) planFor(delta float64) (*prune.Plan, error) {
	return sn.plans.get(delta, func() (*prune.Plan, error) {
		return prune.NewPlan(sn.pool.P(), sn.pool.K(), sn.pool.Estimator(), 0, delta)
	})
}

// progressiveScan answers a nearest-candidate query through the
// progressive search (internal/prune), the one engine of the exact and
// pruned tiers: each candidate's distance is first bounded from below by
// the marginal summaries BuildSnapshot kept (lpnorm.MarginalLowerBound,
// O(TileRows) a candidate), and only the candidates the bounds cannot
// rule out have their cells read, row by row, straight from the table.
// plan == nil selects the exact margin: the answer (index, distance, and
// therefore response bytes) is provably identical to a brute-force scan
// at any worker count, and no sketch is consulted. A non-nil plan first
// screens the candidates by their precomputed pool sketches against q's
// own compound sketch, eliminating at the plan's delta with epsilon extra
// headroom; the true nearest candidate is returned with probability
// ≥ 1 − delta.
func (sn *Snapshot) progressiveScan(ctx context.Context, assign bool, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (int, float64, prune.Stats, error) {
	set, err := sn.querySet(assign, q)
	if err != nil {
		return 0, 0, prune.Stats{}, err
	}
	ms := q.Rows + 1
	mp, _ := sn.mgBuf.Get().(*[]float64)
	if mp == nil {
		mp = new([]float64)
	}
	defer sn.mgBuf.Put(mp)
	*mp = sn.marginals((*mp)[:0], q)
	qm := *mp
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
		Skip:        -1,
	}
	if set.skipSelf {
		src.Skip = sn.tileIndex(q)
	}
	if plan != nil {
		bq := sn.getSketchBuf()
		defer sn.putSketchBuf(bq)
		k := sn.pool.K()
		if src.QSketch, err = sn.pool.Sketch(q, *bq); err != nil {
			return 0, 0, prune.Stats{}, err
		}
		src.K = k
		src.Sketch = func(i int) []float64 { return set.sketches[i*k : (i+1)*k] }
		src.CompoundSlack = sn.compoundSlack
		src.Estimator, src.Scale = sn.pool.Estimator(), sn.pool.Scale()
	}
	idx, sum, stats, err := prune.Nearest(ctx, src, prune.Config{
		Plan: plan, Epsilon: epsilon, Workers: workers,
	})
	if err != nil {
		if errors.Is(err, prune.ErrNoCandidates) {
			err = fmt.Errorf("no candidate %s for %v", set.what, q)
		}
		return 0, 0, stats, err
	}
	return idx, math.Pow(sum, 1/sn.lp.Value()), stats, nil
}

// ProgressiveNearest is the progressive scan over the grid tiles
// (excluding q's own position); under the exact margin (plan == nil) it
// is ExactNearest with the statistics.
func (sn *Snapshot) ProgressiveNearest(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (int, float64, prune.Stats, error) {
	return sn.progressiveScan(ctx, false, q, workers, plan, epsilon)
}

// ProgressiveAssign is the progressive scan over the cluster medoids;
// under the exact margin it is ExactAssign with the statistics.
func (sn *Snapshot) ProgressiveAssign(ctx context.Context, q table.Rect, workers int, plan *prune.Plan, epsilon float64) (cluster, medoid int, d float64, stats prune.Stats, err error) {
	c, d, stats, err := sn.progressiveScan(ctx, true, q, workers, plan, epsilon)
	if err != nil {
		return 0, 0, 0, stats, err
	}
	return c, sn.medoids[c], d, stats, nil
}
