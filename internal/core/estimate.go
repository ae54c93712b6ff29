package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/quantile"
	"repro/internal/stable"
)

// estimate is the merge half of a sketcher: how two k-lane sketch vectors
// become a distance. Sketcher and NewSketchDist share it, so the
// estimator is chosen in one place and every holder applies the same
// arithmetic to the same lanes — the reason a distance merged from
// shard-fetched sketches is bit-identical to the one a shard reports.
//
// p alone picks the estimator, as in the paper: median(|s(x) − s(y)|) / B(p)
// for p < 2 (Theorems 1–2), and at p = 2, where sketch entries are
// standard-normal dot products, sqrt(Σ(sᵢ(x) − sᵢ(y))² / k) (§4.4: "a
// slightly different method is used for p = 2 ... faster ... rather than
// by running a median algorithm").
type estimate struct {
	k     int
	scale float64 // B(p) = median |stable|, the median estimator's unbiasing constant
	l2    bool    // p = 2: the L2 norm of the difference, not the median
}

// newEstimate validates (p, k) and returns the estimate with the stable
// distribution it is scaled by.
func newEstimate(p float64, k int) (estimate, *stable.Dist, error) {
	if k <= 0 {
		return estimate{}, nil, fmt.Errorf("core: sketch size k = %d must be positive", k)
	}
	dist, err := stable.New(p)
	if err != nil {
		return estimate{}, nil, err
	}
	return estimate{k: k, scale: stable.MedianAbs(p), l2: p == 2}, dist, nil
}

// dist estimates the Lp distance between the vectors sketched as a and b.
// scratch is read only by the median estimator.
func (e estimate) dist(a, b []float64, scratch quantile.Scratch) float64 {
	if len(a) != e.k || len(b) != e.k {
		panic(fmt.Sprintf("core: sketch lengths %d/%d != k=%d", len(a), len(b), e.k))
	}
	if e.l2 {
		return e.l2Dist(a, b)
	}
	return quantile.AbsMedianDiff(a, b, scratch) / e.scale
}

func (e estimate) l2Dist(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(e.k))
}

// scanPollStride is how many candidates nearest compares between context
// polls.
const scanPollStride = 64

// nearest is the argmin of dist(q, ·) over the len(cands)/k candidate
// sketches stored back to back in cands, skipping index skip (−1 skips
// nothing): the lowest index of the smallest estimate, and that estimate.
// best is −1 when no candidate's estimate is below +Inf. full counts the
// candidates whose estimate had to be computed in full.
//
// The median estimator keeps the running best and hands its median — the
// estimate before the division by B(p) — to the count as a bound. A
// candidate the count rejects has median ≥ that bound; division by
// B(p) > 0 is monotone, so its estimate is ≥ the best one and the strict <
// below would have rejected it anyway. Index and estimate therefore equal
// a scan that computes every estimate, ties included. The count runs over
// back-to-back candidates (quantile.FirstBelow) up to the next context
// poll or skip, so a scan calls it once a selection, not once a
// candidate. The L2 estimator computes every candidate: no served
// workload runs p = 2, so an early exit there would be unmeasured code.
func (e estimate) nearest(ctx context.Context, q, cands []float64, skip int, scratch quantile.Scratch) (best int, dist float64, full int, err error) {
	if len(q) != e.k || len(cands)%e.k != 0 {
		panic(fmt.Sprintf("core: query of %d lanes and %d candidate lanes for k=%d", len(q), len(cands), e.k))
	}
	best, dist = -1, math.Inf(1)
	bound := math.Inf(1)
	n := len(cands) / e.k
	for i := 0; i < n; i++ {
		if i%scanPollStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, full, err
			}
		}
		if i == skip {
			continue
		}
		var m, d float64
		if e.l2 {
			d = e.l2Dist(q, cands[i*e.k:(i+1)*e.k])
		} else {
			end := min(n, i-i%scanPollStride+scanPollStride)
			if skip > i {
				end = min(end, skip)
			}
			if i += quantile.FirstBelow(q, cands[i*e.k:end*e.k], bound); i == end {
				i-- // the loop steps to end: a poll, the skip, or the last
				continue
			}
			m = quantile.AbsMedianDiff(q, cands[i*e.k:(i+1)*e.k], scratch)
			d = m / e.scale
		}
		full++
		if d < dist {
			best, dist, bound = i, d, m
		}
	}
	return best, dist, full, nil
}

// Distance estimates the Lp distance between the vectors sketched as a
// and b; both must have length k. The selection scratch is borrowed from
// the package's one scratch pool (batchPool), so Distance is safe for
// concurrent use and allocates nothing once warm: the distance function to
// hand to parallel clustering. Sketcher has it by embedding.
func (e estimate) Distance(a, b []float64) float64 {
	sc := getBatchScratch(e.k)
	d := e.dist(a, b, sc.sel)
	batchPool.Put(sc)
	return d
}

// NewSketchDist returns the O(k) distance estimator over sketch vectors
// for (p, k) WITHOUT building random matrices — the merge half of a
// Sketcher, for processes (a scatter-gather coordinator) that compare
// sketches produced elsewhere but never sketch data themselves.
// The returned function is estimate.Distance: safe for concurrent use and
// exactly the arithmetic Sketcher.Distance applies, so a distance computed
// from two shard-fetched sketches is bit-identical to the one the shard
// itself would have reported for the same vectors.
func NewSketchDist(p float64, k int) (func(a, b []float64) float64, error) {
	e, _, err := newEstimate(p, k)
	if err != nil {
		return nil, err
	}
	return e.Distance, nil
}
