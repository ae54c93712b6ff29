package coord

import (
	"context"
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
// — so shards built with equal (p, k, seed, estimator) produce
// sketches that are mutually comparable and mathematically identical
// to what an unsharded pool over the whole table would produce for the
// same cells. "Mathematically" rather than "bitwise": each shard runs
// its own FFT build over its own column slice, so the same dot product
// is accumulated in a different order and its float64 value moves by
// about 1e-13 of the plane's magnitude — heavy-tailed under the Cauchy
// lanes of p = 1. A stored lane is that value rounded to float32
// (core.PlaneSet), which absorbs the movement unless it straddles a
// rounding boundary. The contract, as TestCrossTopologySketchAnswers
// counts it over 240 seeds: a sketch-tier distance merged from shards is
// within 1e-6 relative of the unsharded one — the tolerance the gated
// benchmark gives its coordinator — and is in fact bit-equal for all
// 151 200 tile pairs (float64 lanes: 135 341 of them differed, by up to
// 4.1e-11). Distance and nearest merges below therefore reproduce the
// single-process sketch tier's indices, tie-breaks, and tags (an argmin
// flip needs two distinct candidates within that 1e-6), with distances
// equal to that tolerance. What crosses the wire and what is summed at a
// shard cut stays float64: a merged vector is a sum of widened lanes,
// never re-rounded.

// errUnavailable maps to 503 + Retry-After: the fleet cannot answer
// right now, but retrying later may succeed.
type errUnavailable struct{ msg string }

func (e *errUnavailable) Error() string { return e.msg }

func unavailablef(format string, args ...any) error {
	return &errUnavailable{msg: fmt.Sprintf(format, args...)}
}

// errNotFound maps to 404 (assign without clustering).
type errNotFound struct{ msg string }

func (e *errNotFound) Error() string { return e.msg }

// queryErr classifies a sub-query failure: a shard's 4xx is a query
// error (same answer everywhere — propagate it), anything else is the
// fleet's problem (endpoint fault or no live endpoint — a candidate
// for a partial answer or a 503).
func queryErr(err error) error {
	var se *client.StatusError
	if errors.As(err, &se) && se.Code < 500 && se.Code != 429 {
		return se
	}
	return nil
}

// localRect translates a global rectangle into rng's local coordinates.
func localRect(rng *shardRange, r table.Rect) table.Rect {
	return table.Rect{R0: r.R0, C0: r.C0 - rng.baseCol, Rows: r.Rows, Cols: r.Cols}
}

// colRange renders a global half-open column span for Missing tags.
func colRange(c0, c1 int) string { return fmt.Sprintf("%d-%d", c0, c1) }

// staleBase flags a shard that answered for a different column
// placement than the map expects — a replacement process reusing an
// address, or a window trim the prober has not observed yet. The
// answer is fenced, never merged (merging sketches from the wrong
// columns is exactly the unflagged-wrong failure the epoch fence
// exists to prevent); as a non-StatusError it counts as an endpoint
// fault, so subQuery strikes the endpoint and fails over.
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

// subCall is one of the client's three sub-query calls, as a method
// expression: (*client.Client).Sketch, SketchNearest or SketchAssign.
type subCall func(*client.Client, context.Context, *server.SubQuery, time.Duration) (*server.SubAnswer, error)

// scanCall is the scan route of nearest (tiles) or assign (medoids).
func scanCall(assign bool) subCall {
	if assign {
		return (*client.Client).SketchAssign
	}
	return (*client.Client).SketchNearest
}

// subRequest sends rng one frame of items — everything one hop of one
// client request has for that range — through subQuery, so hedging,
// failover and strikes apply to the frame as they did to a single item.
// An answer for another column placement than the map's is fenced.
func (c *Coordinator) subRequest(ctx context.Context, rng *shardRange, call subCall, q *server.SubQuery, timeout time.Duration) (*server.SubAnswer, error) {
	return subQuery(c, ctx, rng, func(qctx context.Context, ep *endpoint) (*server.SubAnswer, error) {
		res, err := call(ep.cl, qctx, q, timeout)
		if err == nil && res.BaseCol != rng.baseCol {
			return nil, staleBase(ep.url, res.BaseCol, rng)
		}
		return res, err
	})
}

// itemErr is the error of an item its shard refused alone: a query error
// like a shard's 400 for a whole frame — the same answer everywhere.
func itemErr(msg string) error {
	return &client.StatusError{Code: http.StatusBadRequest, Msg: msg}
}

// outcome is one item's answer or its error.
type outcome struct {
	ans answer
	err error
}

// --- distance ---

// fetched is one chunk rectangle's sketch, or why it could not be had.
type fetched struct {
	sk  []float64
	err error
}

// distChunk is columns [lo, hi) of both rectangles of a distance item.
type distChunk struct {
	lo, hi int
	a, b   fetched
}

// distItem is a cross-shard distance item on its way through the merge.
type distItem struct {
	out    *outcome
	a, b   table.Rect
	chunks []distChunk
}

// planDistance answers a request's distance items. Co-resident pairs
// proxy to their owner verbatim, one after the other; every chunk
// rectangle of every cross-shard item is grouped by the range that owns
// it, so the sketch-tier merge costs one sketch sub-request per
// range per request however many items it has (a range's rectangles
// beyond the frame bound go in a further frame).
func (c *Coordinator) planDistance(ctx context.Context, m *shardMap, items []server.BatchItem, mode string, allowPartial bool) []outcome {
	outs := make([]outcome, len(items))
	var merge []*distItem
	for i, it := range items {
		a, err := server.ParseRect(it.A)
		var b table.Rect
		if err == nil {
			b, err = server.ParseRect(it.B)
		}
		var chunks []distChunk
		if err == nil {
			outs[i].ans, chunks, err = c.routeDistance(ctx, m, a, b, mode)
		}
		outs[i].err = err
		if chunks != nil {
			merge = append(merge, &distItem{out: &outs[i], a: a, b: b, chunks: chunks})
		}
	}
	if len(merge) == 0 {
		return outs
	}

	// Every chunk rectangle joins the frame of the range that owns it.
	type want struct {
		rect table.Rect // shard-local
		dst  *fetched
	}
	wants := make([][]want, len(m.ranges))
	add := func(r table.Rect, ch *distChunk, dst *fetched) {
		r.C0, r.Cols = r.C0+ch.lo, ch.hi-ch.lo
		ri := m.rangeIdxFor(r.C0, r.C0+r.Cols)
		if ri < 0 {
			dst.err = unavailablef("no shard known for cols %s", colRange(r.C0, r.C0+r.Cols))
			return
		}
		wants[ri] = append(wants[ri], want{localRect(m.ranges[ri], r), dst})
	}
	for _, di := range merge {
		for ci := range di.chunks {
			ch := &di.chunks[ci]
			add(di.a, ch, &ch.a)
			add(di.b, ch, &ch.b)
		}
	}
	sub, cancel, timeout := c.subDeadline(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for ri, ws := range wants {
		if len(ws) == 0 {
			continue
		}
		wg.Add(1)
		go func(rng *shardRange, ws []want) {
			defer wg.Done()
			for len(ws) > 0 {
				frame := ws[:min(len(ws), server.DefaultMaxBatch)]
				ws = ws[len(frame):]
				rects := make([]table.Rect, len(frame))
				for i, w := range frame {
					rects[i] = w.rect
				}
				res, err := c.subRequest(sub, rng, (*client.Client).Sketch, &server.SubQuery{K: m.k, Rects: rects}, timeout)
				for i, w := range frame {
					switch {
					case err != nil:
						w.dst.err = err
					case res.Items[i].Err != "":
						w.dst.err = itemErr(res.Items[i].Err)
					default:
						w.dst.sk = res.Items[i].Sketch
					}
				}
			}
		}(m.ranges[ri], ws)
	}
	wg.Wait()
	for _, di := range merge {
		di.out.ans, di.out.err = mergeDistance(m, di, sketchReason(mode), allowPartial)
	}
	return outs
}

// routeDistance validates one distance item and answers it when the
// answer needs no merge: a co-resident pair is proxied on the spot. A
// cross-shard item comes back as its chunks, for the merge to answer.
func (c *Coordinator) routeDistance(ctx context.Context, m *shardMap, a, b table.Rect, mode string) (answer, []distChunk, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return answer{}, nil, fmt.Errorf("distance between different-size rects %v and %v", a, b)
	}
	if err := validGlobalRect(m, a); err != nil {
		return answer{}, nil, err
	}
	if err := validGlobalRect(m, b); err != nil {
		return answer{}, nil, err
	}
	ia := m.rangeIdxFor(a.C0, a.C0+a.Cols)
	ib := m.rangeIdxFor(b.C0, b.C0+b.Cols)

	// Co-resident rectangles proxy to their owner verbatim: the shard
	// holds all the data, so every tier — including exact — works, and
	// the answer is the single-process answer by construction.
	if ia >= 0 && ia == ib {
		rng := m.ranges[ia]
		sub, cancel, _ := c.subDeadline(ctx)
		defer cancel()
		res, err := subQuery(c, sub, rng, func(qctx context.Context, ep *endpoint) (*server.DistanceResult, error) {
			return ep.cl.Distance(qctx, localRect(rng, a), localRect(rng, b), mode)
		})
		if err != nil {
			return answer{}, nil, distErr(err)
		}
		return answer{res: &DistanceResult{DistanceResult: *res}, degraded: res.Degraded}, nil, nil
	}
	if mode == server.ModeExact {
		if m.inGap(a.C0, a.C0+a.Cols) || m.inGap(b.C0, b.C0+b.Cols) {
			return answer{}, nil, unavailablef("no shard known for some columns of %v/%v; register a replacement", a, b)
		}
		return answer{}, nil, fmt.Errorf("mode=exact needs both rectangles on one shard (a on shard %d, b on shard %d); use mode=sketch for cross-shard distances", ia, ib)
	}
	return answer{}, cutChunks(m, a, b), nil
}

// distErr maps a sub-query failure on a non-partializable path.
func distErr(err error) error {
	if qe := queryErr(err); qe != nil {
		return qe
	}
	return unavailablef("shard unreachable: %v", err)
}

// cutChunks cuts a cross-shard (possibly spanning) pair at the union of
// every shard boundary either rectangle crosses, so column-chunk i of a
// and column-chunk i of b have equal width and each lands wholly inside
// one shard.
func cutChunks(m *shardMap, a, b table.Rect) []distChunk {
	cutSet := map[int]bool{}
	for _, r := range [2]table.Rect{a, b} {
		for _, rng := range m.ranges {
			for _, edge := range [2]int{rng.baseCol, rng.baseCol + rng.cols} {
				if off := edge - r.C0; off > 0 && off < r.Cols {
					cutSet[off] = true
				}
			}
		}
	}
	cuts := make([]int, 0, len(cutSet)+2)
	cuts = append(cuts, 0)
	for off := range cutSet {
		cuts = append(cuts, off)
	}
	sort.Ints(cuts)
	cuts = append(cuts, a.Cols)
	chunks := make([]distChunk, len(cuts)-1)
	for i := range chunks {
		chunks[i].lo, chunks[i].hi = cuts[i], cuts[i+1]
	}
	return chunks
}

// mergeDistance merges one cross-shard distance on the sketch tier from
// its chunks' sketches, each fetched from the chunk's owner: the
// per-chunk sketches are summed lane-wise in ascending chunk order
// (sketches are linear in the data, and fixed order keeps float
// summation deterministic), and the summed vectors are differenced
// under the shared estimator.
//
// For rectangles that each fit one shard this is exactly two sketches
// and reproduces the unsharded answer (up to each shard's FFT
// accumulation order). For SPANNING rectangles the sum is an honest
// estimator only insofar as same-width chunks reuse the same random
// matrices (see DESIGN.md §13 for the caveat); the primary tile-grid
// workload never spans.
func mergeDistance(m *shardMap, di *distItem, reason string, allowPartial bool) (answer, error) {
	a, b := di.a, di.b
	sumA, sumB := make([]float64, m.k), make([]float64, m.k)
	var missing []string
	got := 0
	for i := range di.chunks {
		ch := &di.chunks[i]
		for _, err := range []error{ch.a.err, ch.b.err} {
			if err == nil {
				continue
			}
			if qe := queryErr(err); qe != nil {
				return answer{}, qe
			}
		}
		if ch.a.err != nil || ch.b.err != nil {
			// Drop the chunk from BOTH rectangles: the remaining sums
			// compare the same column projection of a and b, an honest
			// (if narrower) distance, instead of comparing mismatched
			// supports.
			if ch.a.err != nil {
				missing = append(missing, colRange(a.C0+ch.lo, a.C0+ch.hi))
			}
			if ch.b.err != nil {
				missing = append(missing, colRange(b.C0+ch.lo, b.C0+ch.hi))
			}
			continue
		}
		got++
		for l := range sumA {
			sumA[l] += ch.a.sk[l]
			sumB[l] += ch.b.sk[l]
		}
	}
	if len(missing) > 0 && !allowPartial {
		return answer{}, unavailablef("shards for cols %v unreachable and partial=deny", missing)
	}
	if got == 0 {
		return answer{}, unavailablef("no shard reachable for any column of %v/%v", a, b)
	}
	sort.Strings(missing)
	reason, partial := partialReason(reason, missing)
	return answer{res: &DistanceResult{
		DistanceResult: server.DistanceResult{
			Distance: m.sdist(sumA, sumB), Tier: server.TierSketch, Degraded: partial, Reason: reason,
		},
		Partial: partial, Missing: dedup(missing),
	}, partial: partial, degraded: partial}, nil
}

func dedup(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
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
// a partial answer (or, under partial=deny, a refusal).
func (c *Coordinator) planScan(assign bool) planFunc {
	what := "nearest"
	if assign {
		what = "assign"
	}
	return func(ctx context.Context, m *shardMap, items []server.BatchItem, mode string, allowPartial bool) []outcome {
		outs := make([]outcome, len(items))
		sub, cancel, timeout := c.subDeadline(ctx)
		defer cancel()
		// Whole table on one shard (possibly replicated): proxy any
		// mode verbatim and translate indices (identity when the shard
		// starts at column 0). With gaps the lone survivor does NOT get
		// this path: its answer would ignore the lost columns without
		// saying so — it must go through the merge and come back tagged.
		proxy := len(m.ranges) == 1 && len(m.gaps) == 0
		// The items that pass validation, grouped by owning range.
		owned := make([][]*scanItem, len(m.ranges))
		scanItems := make([]scanItem, len(items))
		bests := make([]shardBest, len(items)*len(m.ranges))
		for i, it := range items {
			q, err := server.ParseRect(it.Q)
			if err == nil && assign && m.clusters == 0 {
				err = &errNotFound{msg: "snapshot built without clustering"}
			}
			if err == nil {
				err = c.checkTileSized(m, q)
			}
			if err == nil && proxy {
				outs[i].ans, outs[i].err = c.proxyScan(sub, m, q, mode, assign)
				continue
			}
			if err == nil && mode == server.ModeExact {
				err = fmt.Errorf("mode=exact %s needs the whole tile grid on one shard (%d shards configured); use mode=sketch", what, len(m.ranges))
			}
			owner := -1
			if err == nil {
				owner = m.rangeIdxFor(q.C0, q.C0+q.Cols)
				switch {
				case owner >= 0:
				case m.inGap(q.C0, q.C0+q.Cols):
					err = unavailablef("no shard known for cols %s; register a replacement", colRange(q.C0, q.C0+q.Cols))
				default:
					err = fmt.Errorf("query rect %v spans a shard boundary", q)
				}
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
				res, err := c.subRequest(sub, rng, scanCall(assign), &server.SubQuery{K: m.k, Rects: rects}, timeout)
				if qe := queryErr(err); qe != nil {
					err = qe
				} else if err != nil {
					err = unavailablef("query owner shard (%s) unreachable: %v", rng, err)
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
				res, err := c.subRequest(sub, m.ranges[ri], scanCall(assign), &server.SubQuery{K: m.k, Sketches: sketches}, timeout)
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
			si.out.ans, si.out.err = mergeScan(m, si, what, mode, allowPartial, assign)
		}
		return outs
	}
}

// mergeScan merges one item's per-range bests into its answer.
func mergeScan(m *shardMap, si *scanItem, what, mode string, allowPartial, assign bool) (answer, error) {
	for _, b := range si.bests {
		if b.err != nil {
			if qe := queryErr(b.err); qe != nil {
				return answer{}, qe
			}
		}
	}
	best, missingIdx, found := mergeBests(si.bests)
	missing := missingSpans(m, missingIdx)
	if len(missing) > 0 && !allowPartial {
		return answer{}, unavailablef("cols %v unreachable and partial=deny", missing)
	}
	if !found {
		return answer{}, unavailablef("no shard reachable for %s(%v)", what, si.q)
	}
	reason, partial := partialReason(sketchReason(mode), missing)
	ans := answer{partial: partial, degraded: partial}
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
	return ans, nil
}

// proxyScan relays a scan to the one shard range holding the whole
// table and translates the shard-local tile index to the global grid.
func (c *Coordinator) proxyScan(sub context.Context, m *shardMap, q table.Rect, mode string, assign bool) (answer, error) {
	rng := m.ranges[0]
	if assign {
		res, err := subQuery(c, sub, rng, func(qctx context.Context, ep *endpoint) (*server.AssignResult, error) {
			return ep.cl.Assign(qctx, localRect(rng, q), mode)
		})
		if err != nil {
			return answer{}, distErr(err)
		}
		out := *res
		out.Medoid = m.globalTile(rng, res.Medoid)
		return answer{res: &AssignResult{AssignResult: out}, degraded: out.Degraded}, nil
	}
	res, err := subQuery(c, sub, rng, func(qctx context.Context, ep *endpoint) (*server.NearestResult, error) {
		return ep.cl.Nearest(qctx, localRect(rng, q), mode)
	})
	if err != nil {
		return answer{}, distErr(err)
	}
	out := *res
	out.Tile = m.globalTile(rng, res.Tile)
	out.Rect = server.FormatRect(m.globalTileRect(out.Tile))
	return answer{res: &NearestResult{NearestResult: out}, degraded: out.Degraded}, nil
}
