package core

import (
	"fmt"
	"sync"

	"repro/internal/quantile"
	"repro/internal/table"
)

// The sketch-distance kernel, single and batched. The serving layer
// answers many distance estimates per request; Pool.DistanceBatch answers
// them item by item — gather a, gather b, estimate — with the two sketch
// vectors and the selection scratch taken from a package sync.Pool and
// the size lookups and bounds checks of all eight positions an item done
// before the first lane is read, so a steady-state batch allocates O(1)
// per call, not per item. Pool.Distance and PlaneSet.Distance are the
// same kernel at n = 1, on the same pooled scratch, and batchPool is the
// package's one scratch pool: estimate.Distance and Pool.NearestSketch
// borrow their selection scratch from it too.
//
// The kernel is item-major because the estimator is: a median needs all
// k differences of one item before it can select, so a sweep that keeps
// n items' lanes side by side (entry (lane, item) at lane*n+item) only
// writes a matrix the estimator has to read back transposed, and the L2
// estimator, which could ride such a sweep, adds the same squares in the
// same lane order here. What a batch of n items costs is not the 2·n·k
// additions but the 8·n positions they read: each is k·LaneBytes at an
// arbitrary offset of a pool far wider than any cache, a few hundred
// nanoseconds cold against tens warm, and gather keeps four of them in
// flight where a position-by-position walk waits for one at a time; on
// amd64 the next item's eight are prefetched before an item is gathered.
//
// Every result is bit-identical to Pool.Distance on the same pair: both
// are batchScratch.distance.

// batchScratch is the working memory of a distance call: the corner
// table of a batch (as' corners, then bs'), the two gathered sketches and
// the estimator's selection scratch, recycled through a package pool so
// a warm call allocates nothing.
type batchScratch struct {
	corners []corners
	vecs    []float64
	sel     quantile.Scratch
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchScratch borrows scratch sized for k-lane sketches.
func getBatchScratch(k int) *batchScratch {
	sc := batchPool.Get().(*batchScratch)
	if cap(sc.vecs) < 2*k {
		sc.vecs = make([]float64, 2*k)
		sc.sel = quantile.NewScratch(k)
	}
	return sc
}

// distance gathers the sketches at ca and cb and estimates their
// distance: the one gather → estimate path every pool distance takes.
func (sc *batchScratch) distance(e estimate, ca, cb *corners) float64 {
	va, vb := sc.vecs[:e.k], sc.vecs[e.k:2*e.k]
	gather(va, ca)
	gather(vb, cb)
	return e.dist(va, vb, sc.sel)
}

// distanceAt is batchScratch.distance on borrowed scratch.
func (e estimate) distanceAt(ca, cb *corners) float64 {
	sc := getBatchScratch(e.k)
	d := sc.distance(e, ca, cb)
	batchPool.Put(sc)
	return d
}

// DistanceBatch estimates the Lp distance of n rectangle pairs from
// their pool sketches: all 2·n rectangles are resolved first, so a
// rectangle the pool cannot sketch fails the batch — as' before bs', in
// item order — with nothing written to dst. Result i is bit-identical
// to Distance(as[i], bs[i]). dst is reused when it has capacity n.
// Pairs may have different sizes from each other; within a pair the
// sizes must match.
func (pl *Pool) DistanceBatch(as, bs []table.Rect, dst []float64) ([]float64, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("core: batch of %d vs %d rects", len(as), len(bs))
	}
	n := len(as)
	for i := range as {
		if as[i].Rows != bs[i].Rows || as[i].Cols != bs[i].Cols {
			return nil, fmt.Errorf("core: distance between different-size rects %v and %v", as[i], bs[i])
		}
	}
	sc := getBatchScratch(pl.k)
	if cap(sc.corners) < 2*n {
		sc.corners = make([]corners, 2*n)
	}
	cs := sc.corners[:2*n]
	defer func() {
		clear(cs) // pooled scratch must not pin the lanes of a superseded pool
		batchPool.Put(sc)
	}()
	for side, rects := range [2][]table.Rect{as, bs} {
		for i, rect := range rects {
			var err error
			if cs[side*n+i], err = pl.corners(rect); err != nil {
				return nil, fmt.Errorf("core: batch sketch %d: %w", i, err)
			}
		}
	}

	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	est := pl.refSketcher().estimate
	for i := range dst {
		// Item i+1's eight positions load while item i is gathered and
		// its median selected: a position missed in every cache is a few
		// hundred nanoseconds, about the arithmetic of one item.
		if i+1 < n {
			prefetchCorners(&cs[i+1])
			prefetchCorners(&cs[n+i+1])
		}
		dst[i] = sc.distance(est, &cs[i], &cs[n+i])
	}
	return dst, nil
}
