package core

import (
	"fmt"
	"sync"

	"repro/internal/quantile"
	"repro/internal/table"
)

// The batched sketch-distance kernel. The serving layer answers many
// distance estimates per request; Pool.DistanceBatch answers them item
// by item — gather a, gather b, estimate — with everything a single
// Pool.Distance sets up per call (two sketch vectors, selection scratch,
// the size lookup and bounds checks of eight positions) taken from a
// package sync.Pool or done before the first lane is read, so a
// steady-state batch allocates O(1) per call, not per item.
//
// The kernel is item-major because the estimator is: a median needs all
// k differences of one item before it can select, so a sweep that keeps
// n items' lanes side by side (entry (lane, item) at lane*n+item) only
// writes a matrix the estimator has to read back transposed, and the L2
// estimator, which could ride such a sweep, adds the same squares in the
// same lane order here. What a batch of n items costs is not the 2·n·k
// additions but the 8·n positions they read: each is k·8 bytes at an
// arbitrary offset of a pool far wider than any cache, a few hundred
// nanoseconds cold against tens warm, and gather keeps four of them in
// flight where a position-by-position walk waits for one at a time.
//
// Every result is bit-identical to Pool.Distance on the same pair: the
// same gather feeds the same estimate.dist.

// batchScratch is the working memory of one DistanceBatch call: the
// corner table (as' corners, then bs'), the two gathered sketches and
// the estimator's selection scratch, recycled through a package pool so
// a warm batch allocates nothing.
type batchScratch struct {
	corners []corners
	vecs    []float64
	sel     quantile.Scratch
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

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
	sc := batchPool.Get().(*batchScratch)
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
	k := pl.k
	if cap(sc.vecs) < 2*k {
		sc.vecs = make([]float64, 2*k)
	}
	va, vb := sc.vecs[:k], sc.vecs[k:2*k]
	sc.sel = sc.sel.Grow(k)
	est := pl.refSketcher().estimate
	for i := range dst {
		gather(va, &cs[i])
		gather(vb, &cs[n+i])
		dst[i] = est.dist(va, vb, sc.sel)
	}
	return dst, nil
}
