package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/table"
)

// Merge layer: how per-shard answers combine into one global answer.
//
// The load-bearing fact is that pool sketch randomness depends only on
// (dyadic size, independent-set index, lane) — never on table position
// — so shards built with equal (p, k, seed) produce sketches that are
// mutually comparable and mathematically identical to what an unsharded
// pool over the whole table would produce for the same cells; p picks
// the estimator, so equal p also means the same estimator.
// "Mathematically" rather than "bitwise": each shard runs its own FFT
// build over its own column slice, so the same dot product
// is accumulated in a different order and its float64 value moves by
// about 1e-13 of the plane's magnitude — heavy-tailed under the Cauchy
// lanes of p = 1. A stored lane is that value narrowed to a bfloat16
// (fft.NarrowLane, core.PlaneSet), which absorbs the movement unless it
// straddles a rounding boundary — 2¹⁶ times rarer than at float32
// lanes, which already absorbed all of it. The contract, as TestCrossTopologySketchAnswers
// counts it over 240 seeds: a sketch-tier distance merged from shards is
// within 1e-6 relative of the unsharded one — the tolerance the gated
// benchmark gives its coordinator — and is in fact bit-equal for all
// 151 200 tile pairs (float64 lanes: 135 341 of them differed, by up to
// 4.1e-11). Distance and nearest merges below therefore reproduce the
// single-process sketch tier's indices, tie-breaks, and tags (an argmin
// flip needs two distinct candidates within that 1e-6), with distances
// equal to that tolerance. What crosses the wire stays float64: an
// operand's sketch is its owner's widened lanes, compared as they came,
// never re-rounded and never summed with another shard's — a rectangle
// that spans a shard boundary is refused (shardMap.owner).

// unavailablef is the fleet's 503 + Retry-After: it cannot answer right
// now, but retrying later may succeed.
func unavailablef(format string, args ...any) error {
	return server.Unavailable(fmt.Sprintf(format, args...))
}

// queryErr classifies a sub-query failure: a shard's 4xx — the frame's,
// or an item's alone — is a query error (same answer everywhere —
// propagate it, with its status and text), anything else is the fleet's
// problem (endpoint fault or no live endpoint — a candidate for a
// partial answer or a 503).
func queryErr(err error) error {
	if err == nil {
		return nil
	}
	var se *client.StatusError
	if errors.As(err, &se) && se.Code < 500 && se.Code != 429 {
		return &server.HTTPError{Code: se.Code, Msg: se.Msg}
	}
	var he *server.HTTPError
	if errors.As(err, &he) && he.Code < 500 {
		return he
	}
	return nil
}

// localRect translates a global rectangle into rng's local coordinates.
func localRect(rng *shardRange, r table.Rect) table.Rect {
	return table.Rect{R0: r.R0, C0: r.C0 - rng.baseCol, Rows: r.Rows, Cols: r.Cols}
}

// colRange renders a global half-open column span for Missing tags and
// errors.
func colRange(c0, c1 int) string { return fmt.Sprintf("%d-%d", c0, c1) }

// staleBase flags a shard that answered for a different column
// placement than the map expects — a replacement process reusing an
// address, or a window trim the prober has not observed yet. The
// answer is fenced, never merged (merging sketches from the wrong
// columns is exactly the unflagged-wrong failure the epoch fence
// exists to prevent); as a non-StatusError it counts as an endpoint
// fault, so subRequest strikes the endpoint and fails over.
func staleBase(epURL string, got int, rng *shardRange) error {
	return fmt.Errorf("shard %s answered for base_col %d but the map places it at %d (stale placement fenced)",
		epURL, got, rng.baseCol)
}

// missingSpans collects the global column spans a merged answer did not
// consult: ranges with no reachable endpoint plus map gaps (columns no
// registered shard covers at all — a deregistered sole owner). Sorted
// by span start so tags are stable.
func missingSpans(m *shardMap, missingIdx []int) []string {
	if len(missingIdx)+len(m.gaps) == 0 {
		return nil
	}
	spans := make([][2]int, 0, len(missingIdx)+len(m.gaps))
	for _, i := range missingIdx {
		rng := m.ranges[i]
		spans = append(spans, [2]int{rng.baseCol, rng.baseCol + rng.cols})
	}
	spans = append(spans, m.gaps...)
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		out = append(out, colRange(s[0], s[1]))
	}
	return out
}

// --- sub-requests ---

// itemErr is the error of an item its shard refused alone: a query error
// like a shard's 400 for a whole frame — the same answer everywhere.
func itemErr(msg string) error {
	return &server.HTTPError{Code: http.StatusBadRequest, Msg: msg}
}

// wholeItems are the items one range answers whole: their outcomes, and
// their rectangles in its coordinates.
type wholeItems struct {
	outs  []*outcome
	rects []table.Rect
}

func (w *wholeItems) add(out *outcome, rects ...table.Rect) {
	w.outs = append(w.outs, out)
	w.rects = append(w.rects, rects...)
}

// askWholes sends, on wg, each range that answers items whole its one
// SubWhole frame, and settles each item with the owner's own bytes. The
// shard answers within timeout, which ends MergeReserve before ctx, so
// the items it answered before its deadline reach the client; an item
// whose deadline expired there expires here too.
func (c *Coordinator) askWholes(ctx context.Context, wg *sync.WaitGroup, m *shardMap, wholes []wholeItems, route, mode string, timeout time.Duration) {
	for ri, w := range wholes {
		if len(w.outs) == 0 {
			continue
		}
		wg.Add(1)
		go func(rng *shardRange, w wholeItems) {
			defer wg.Done()
			res, err := c.subRequest(ctx, rng, server.SubWhole, &server.SubQuery{K: m.k, Rects: w.rects, Route: route, Mode: mode}, timeout)
			for i, o := range w.outs {
				switch {
				case err != nil:
					o.err = ownerErr(rng, err)
				case res.Items[i].Err == server.DeadlineText:
					o.err = context.DeadlineExceeded
				case res.Items[i].Err != "":
					o.err = itemErr(res.Items[i].Err)
				default:
					o.res, o.degraded = json.RawMessage(res.Items[i].Body), res.Items[i].Degraded
				}
			}
		}(m.ranges[ri], w)
	}
}

// outcome is one item's answer or its error, with the flags the handler
// counts by: partial (unreachable shards were left out) and degraded
// (partial, or an owner's own degradation of an item it answered whole).
type outcome struct {
	res               any
	partial, degraded bool
	err               error
}

// --- distance ---

// fetched is one operand's sketch, or why it could not be had.
type fetched struct {
	sk  []float64
	err error
}

// distItem is a cross-shard distance item on its way through the merge.
type distItem struct {
	out  *outcome
	a, b fetched
}

// planDistance answers a request's distance items. A co-resident pair
// joins its owner's SubWhole frame, any tier; a cross-shard item's a
// joins the sketch frame of the range that owns a, its b the frame of the
// range that owns b, so the sketch-tier merge costs one sketch
// sub-request per range per request however many items it has. The two
// ranges of a cross-shard item differ, so a range is owed at most one
// rectangle an item, and a bounded batch always fits one frame of each op.
func (c *Coordinator) planDistance(ctx context.Context, m *shardMap, items []server.BatchItem, mode string, _ bool) []outcome {
	outs := make([]outcome, len(items))
	dists := make([]distItem, len(items))
	var merge []*distItem
	type want struct {
		rect table.Rect // shard-local
		dst  *fetched
	}
	wants := make([][]want, len(m.ranges))
	var wholes []wholeItems
	for i, it := range items {
		a, err := server.ParseRect(it.A)
		var b table.Rect
		if err == nil {
			b, err = server.ParseRect(it.B)
		}
		var ia, ib int
		if err == nil {
			ia, ib, err = routeDistance(m, a, b, mode)
		}
		switch {
		case err != nil:
			outs[i].err = err
		case ia == ib:
			if wholes == nil {
				wholes = make([]wholeItems, len(m.ranges))
			}
			wholes[ia].add(&outs[i], localRect(m.ranges[ia], a), localRect(m.ranges[ia], b))
		default:
			di := &dists[i]
			di.out = &outs[i]
			merge = append(merge, di)
			wants[ia] = append(wants[ia], want{localRect(m.ranges[ia], a), &di.a})
			wants[ib] = append(wants[ib], want{localRect(m.ranges[ib], b), &di.b})
		}
	}
	sub, cancel, timeout := c.subDeadline(ctx)
	defer cancel()
	var wg sync.WaitGroup
	c.askWholes(ctx, &wg, m, wholes, "distance", mode, timeout)
	for ri, ws := range wants {
		if len(ws) == 0 {
			continue
		}
		wg.Add(1)
		go func(rng *shardRange, ws []want) {
			defer wg.Done()
			rects := make([]table.Rect, len(ws))
			for i, w := range ws {
				rects[i] = w.rect
			}
			res, err := c.subRequest(sub, rng, server.SubSketch, &server.SubQuery{K: m.k, Rects: rects}, timeout)
			if err != nil {
				err = ownerErr(rng, err)
			}
			for i, w := range ws {
				switch {
				case err != nil:
					w.dst.err = err
				case res.Items[i].Err != "":
					w.dst.err = itemErr(res.Items[i].Err)
				default:
					w.dst.sk = res.Items[i].Sketch
				}
			}
		}(m.ranges[ri], ws)
	}
	wg.Wait()
	reason := sketchReason(mode)
	for _, di := range merge {
		*di.out = mergeDistance(m, di, reason)
	}
	return outs
}

// routeDistance validates one distance item and names the ranges that
// own its operands (shardMap.owner: a rectangle in a gap is unavailable,
// one that spans a shard boundary is refused). The exact tier needs
// both operands' rows in one process, so mode=exact needs one owner.
func routeDistance(m *shardMap, a, b table.Rect, mode string) (ia, ib int, err error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, 0, fmt.Errorf("distance between different-size rects %v and %v", a, b)
	}
	if err := validGlobalRect(m, a); err != nil {
		return 0, 0, err
	}
	if err := validGlobalRect(m, b); err != nil {
		return 0, 0, err
	}
	if ia, err = m.owner(a); err != nil {
		return 0, 0, err
	}
	if ib, err = m.owner(b); err != nil {
		return 0, 0, err
	}
	if ia != ib && mode == server.ModeExact {
		return 0, 0, fmt.Errorf("mode=exact needs both rectangles on one shard (a on shard %d, b on shard %d); use mode=sketch for cross-shard distances", ia, ib)
	}
	return ia, ib, nil
}

// ownerErr classifies the failure of a sub-request to the range owning
// an item's rectangle, answered whole or merged: a query error as it
// came, anything else the item's unavailability — without the owner's
// answer there is nothing to answer or merge, whatever partial= says.
func ownerErr(rng *shardRange, err error) error {
	if qe := queryErr(err); qe != nil {
		return qe
	}
	return unavailablef("query owner shard (%s) unreachable: %v", rng, err)
}

// mergeDistance answers one cross-shard distance on the sketch tier: a's
// sketch from a's owner and b's from b's, differenced under the shared
// estimator — the two sketches an unsharded pool would compare, up to
// each shard's FFT accumulation order. It is never partial: both owners
// answer, or the item fails, a query error before an unavailable owner.
func mergeDistance(m *shardMap, di *distItem, reason string) outcome {
	for _, err := range [2]error{di.a.err, di.b.err} {
		if queryErr(err) != nil {
			return outcome{err: err}
		}
	}
	for _, err := range [2]error{di.a.err, di.b.err} {
		if err != nil {
			return outcome{err: err}
		}
	}
	return outcome{res: &server.DistanceResult{
		Distance: m.sdist(di.a.sk, di.b.sk), Tier: server.TierSketch, Reason: reason,
	}}
}

func validGlobalRect(m *shardMap, r table.Rect) error {
	if !r.In(m.rows, m.cols) {
		return fmt.Errorf("rect %v outside table %dx%d", r, m.rows, m.cols)
	}
	return nil
}

// --- nearest / assign ---

// globalTile translates rng's local tile index into the global grid.
// Within a column-banded shard, local row-major order restricted to
// the shard equals global row-major order restricted to the shard, so
// per-shard lowest-local-index tie-breaks translate into per-shard
// lowest-GLOBAL-index minimizers — which is what makes the merge's
// (distance, global index) ordering reproduce the unsharded argmin.
func (m *shardMap) globalTile(rng *shardRange, local int) int {
	localGridCols := rng.cols / m.tileCols
	r, cl := local/localGridCols, local%localGridCols
	return r*m.gridCols() + rng.baseCol/m.tileCols + cl
}

// globalTileRect is the tile rectangle of a global tile index, equal to
// what the unsharded grid would report.
func (m *shardMap) globalTileRect(idx int) table.Rect {
	r, cg := idx/m.gridCols(), idx%m.gridCols()
	return table.Rect{R0: r * m.tileRows, C0: cg * m.tileCols, Rows: m.tileRows, Cols: m.tileCols}
}

func (c *Coordinator) checkTileSized(m *shardMap, q table.Rect) error {
	if err := validGlobalRect(m, q); err != nil {
		return err
	}
	if q.Rows != m.tileRows || q.Cols != m.tileCols {
		return fmt.Errorf("query rect %v must match the %dx%d tile size", q, m.tileRows, m.tileCols)
	}
	return nil
}

// shardBest is one shard's best candidate, already in global terms.
type shardBest struct {
	rngIdx  int
	tile    int // global tile index (nearest: best tile; assign: medoid)
	cluster int // assign only: shard-local cluster id
	dist    float64
	ok      bool
	err     error
}

// mergeBests reduces the fan-out: minimum distance, ties to the lowest
// global tile index — the unsharded argmin's ordering.
func mergeBests(bests []shardBest) (best shardBest, missing []int, found bool) {
	for _, b := range bests {
		if !b.ok {
			missing = append(missing, b.rngIdx)
			continue
		}
		if !found || b.dist < best.dist || (b.dist == best.dist && b.tile < best.tile) {
			best, found = b, true
		}
	}
	return best, missing, found
}

// partialReason is the reason tag of a merged answer and whether it is
// partial: reason as the mode implies it, unless shards were left out
// (partial=allow) and missing names the column spans not consulted.
func partialReason(reason string, missing []string) (string, bool) {
	if len(missing) > 0 {
		return ReasonPartial, true
	}
	return reason, false
}

// sketchReason is the reason tag of a merged sketch-tier answer: the
// client asked for the tier, or mode=auto met a fleet of several shards.
func sketchReason(mode string) string {
	if mode == server.ModeAuto {
		return ReasonCrossShard
	}
	return server.ReasonRequested
}

// scanItem is a nearest / assign item on its way through the two hops.
type scanItem struct {
	out    *outcome
	q      table.Rect
	owner  int
	sketch []float64   // q's sketch, from its owner (hop 1)
	bests  []shardBest // one per range
}

// best turns a range's answer for one item into global terms.
func (m *shardMap) best(ri int, it *server.SubItem, assign bool) shardBest {
	if it.Err != "" {
		return shardBest{rngIdx: ri, err: itemErr(it.Err)}
	}
	local := it.Tile
	if assign {
		local = it.Medoid
	}
	return shardBest{
		rngIdx: ri, tile: m.globalTile(m.ranges[ri], local),
		cluster: it.Cluster, dist: it.Distance, ok: true,
	}
}

// planScan answers a request's nearest (the best tile over every shard's
// grid) or assign (the best medoid over every shard's clustering) items
// in two hops, each one sub-request per shard range whatever the item
// count. Hop 1 sends every owner range its items as rectangles and gets
// back, per item, the sketch and the owner's own best — the scan run
// with the very sketch it returns, on the one snapshot the frame
// resolved. Hop 2 sends every range the sketches of the items it does
// not own. A request of n items over S ranges so costs at most 2·S
// sub-requests, a single query S. The owner is required: without q's
// sketch there is nothing to compare, so an item whose owner is
// unreachable is unavailable, never partial; any other range left out is
// a partial answer (or, under partial=deny, a refusal). A fleet of one
// range needs no merge: its shard answers every item whole.
func (c *Coordinator) planScan(assign bool) planFunc {
	what, op := "nearest", server.SubNearest
	if assign {
		what, op = "assign", server.SubAssign
	}
	return func(ctx context.Context, m *shardMap, items []server.BatchItem, mode string, allowPartial bool) []outcome {
		outs := make([]outcome, len(items))
		sub, cancel, timeout := c.subDeadline(ctx)
		defer cancel()
		// Whole table on one shard (possibly replicated), whose grid is
		// the global grid: a map without gaps starts it at column 0. With
		// gaps the lone survivor does NOT get this path: its answer would
		// ignore the lost columns without saying so — it must go through
		// the merge and come back tagged.
		var wholes []wholeItems
		if len(m.ranges) == 1 && len(m.gaps) == 0 {
			wholes = make([]wholeItems, 1)
		}
		// The items that pass validation, grouped by owning range.
		owned := make([][]*scanItem, len(m.ranges))
		scanItems := make([]scanItem, len(items))
		bests := make([]shardBest, len(items)*len(m.ranges))
		for i, it := range items {
			q, err := server.ParseRect(it.Q)
			if err == nil && assign && m.clusters == 0 {
				err = server.ErrNoClusters
			}
			if err == nil {
				err = c.checkTileSized(m, q)
			}
			if err == nil && wholes != nil {
				wholes[0].add(&outs[i], q)
				continue
			}
			if err == nil && mode == server.ModeExact {
				err = fmt.Errorf("mode=exact %s needs the whole tile grid on one shard (%d shards configured); use mode=sketch", what, len(m.ranges))
			}
			owner := -1
			if err == nil {
				owner, err = m.owner(q)
			}
			if err != nil {
				outs[i].err = err
				continue
			}
			si := &scanItems[i]
			*si = scanItem{out: &outs[i], q: q, owner: owner, bests: bests[i*len(m.ranges) : (i+1)*len(m.ranges)]}
			owned[owner] = append(owned[owner], si)
		}

		// Hop 1: the fused owner hop.
		var wg sync.WaitGroup
		c.askWholes(ctx, &wg, m, wholes, what, mode, timeout)
		for ri, group := range owned {
			if len(group) == 0 {
				continue
			}
			wg.Add(1)
			go func(ri int, group []*scanItem) {
				defer wg.Done()
				rng := m.ranges[ri]
				rects := make([]table.Rect, len(group))
				for i, si := range group {
					rects[i] = localRect(rng, si.q)
				}
				res, err := c.subRequest(sub, rng, op, &server.SubQuery{K: m.k, Rects: rects}, timeout)
				if err != nil {
					err = ownerErr(rng, err)
				}
				for i, si := range group {
					switch {
					case err != nil:
						si.out.err = err
					case res.Items[i].Err != "":
						si.out.err = itemErr(res.Items[i].Err)
					default:
						si.sketch, si.bests[ri] = res.Items[i].Sketch, m.best(ri, &res.Items[i], assign)
					}
				}
			}(ri, group)
		}
		wg.Wait()
		var live []*scanItem // the items whose owner answered
		for _, group := range owned {
			for _, si := range group {
				if si.out.err == nil {
					live = append(live, si)
				}
			}
		}

		// Hop 2: every range scans the sketches it does not own.
		for ri := range m.ranges {
			var group []*scanItem
			for _, si := range live {
				if si.owner != ri {
					group = append(group, si)
				}
			}
			if len(group) == 0 {
				continue
			}
			wg.Add(1)
			go func(ri int, group []*scanItem) {
				defer wg.Done()
				sketches := make([]float64, 0, len(group)*m.k)
				for _, si := range group {
					sketches = append(sketches, si.sketch...)
				}
				res, err := c.subRequest(sub, m.ranges[ri], op, &server.SubQuery{K: m.k, Sketches: sketches}, timeout)
				for i, si := range group {
					if err != nil {
						si.bests[ri] = shardBest{rngIdx: ri, err: err}
					} else {
						si.bests[ri] = m.best(ri, &res.Items[i], assign)
					}
				}
			}(ri, group)
		}
		wg.Wait()
		for _, si := range live {
			*si.out = mergeScan(m, si, what, mode, allowPartial, assign)
		}
		return outs
	}
}

// mergeScan merges one item's per-range bests into its answer.
func mergeScan(m *shardMap, si *scanItem, what, mode string, allowPartial, assign bool) outcome {
	for _, b := range si.bests {
		if qe := queryErr(b.err); qe != nil {
			return outcome{err: qe}
		}
	}
	best, missingIdx, found := mergeBests(si.bests)
	missing := missingSpans(m, missingIdx)
	if len(missing) > 0 && !allowPartial {
		return outcome{err: unavailablef("cols %v unreachable and partial=deny", missing)}
	}
	if !found {
		return outcome{err: unavailablef("no shard reachable for %s(%v)", what, si.q)}
	}
	reason, partial := partialReason(sketchReason(mode), missing)
	ans := outcome{partial: partial, degraded: partial}
	if assign {
		ans.res = &AssignResult{
			AssignResult: server.AssignResult{
				Cluster: best.cluster, Medoid: best.tile, Distance: best.dist,
				Tier: server.TierSketch, Degraded: partial, Reason: reason,
			},
			Shard: best.rngIdx, Partial: partial, Missing: missing,
		}
	} else {
		ans.res = &NearestResult{
			NearestResult: server.NearestResult{
				Tile: best.tile, Rect: server.FormatRect(m.globalTileRect(best.tile)), Distance: best.dist,
				Tier: server.TierSketch, Degraded: partial, Reason: reason,
			},
			Partial: partial, Missing: missing,
		}
	}
	return ans
}
