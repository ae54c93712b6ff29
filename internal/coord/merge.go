package coord

import (
	"context"
	"errors"
	"fmt"
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
// is accumulated in a different order and the values agree only to
// float rounding (~1e-12 relative). Distance and nearest merges below
// therefore reproduce the single-process sketch tier's indices,
// tie-breaks, and tags exactly (an argmin flip would need two distinct
// candidates within accumulation noise), with distances equal up to
// that rounding; the fleet test suite asserts exactly this contract.

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

// --- distance ---

func (c *Coordinator) opDistance(ctx context.Context, m *shardMap, a, b table.Rect, mode string, allowPartial bool) (answer, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return answer{}, fmt.Errorf("distance between different-size rects %v and %v", a, b)
	}
	if err := validGlobalRect(m, a); err != nil {
		return answer{}, err
	}
	if err := validGlobalRect(m, b); err != nil {
		return answer{}, err
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
			return answer{}, distErr(err)
		}
		return answer{res: &DistanceResult{DistanceResult: *res}, degraded: res.Degraded}, nil
	}
	if mode == server.ModeExact {
		if m.inGap(a.C0, a.C0+a.Cols) || m.inGap(b.C0, b.C0+b.Cols) {
			return answer{}, unavailablef("no shard known for some columns of %v/%v; register a replacement", a, b)
		}
		return answer{}, fmt.Errorf("mode=exact needs both rectangles on one shard (a on shard %d, b on shard %d); use mode=sketch for cross-shard distances", ia, ib)
	}
	return c.sketchDistance(ctx, m, a, b, sketchReason(mode), allowPartial)
}

// distErr maps a sub-query failure on a non-partializable path.
func distErr(err error) error {
	if qe := queryErr(err); qe != nil {
		return qe
	}
	return unavailablef("shard unreachable: %v", err)
}

// sketchDistance merges a cross-shard (possibly spanning) distance on
// the sketch tier. Both rectangles are cut at the union of every shard
// boundary either rectangle crosses, so column-chunk i of a and
// column-chunk i of b have equal width and each lands wholly inside
// one shard. Each chunk's two sketches are fetched from their owners;
// the per-chunk sketches are summed lane-wise in ascending chunk order
// (sketches are linear in the data, and fixed order keeps float
// summation deterministic), and the summed vectors are differenced
// under the shared estimator.
//
// For rectangles that each fit one shard this is exactly two sketch
// fetches and reproduces the unsharded answer (up to each shard's FFT
// accumulation order). For
// SPANNING rectangles the sum is an honest estimator only insofar as
// same-width chunks reuse the same random matrices (see DESIGN.md §13
// for the caveat); the primary tile-grid workload never spans.
func (c *Coordinator) sketchDistance(ctx context.Context, m *shardMap, a, b table.Rect, reason string, allowPartial bool) (answer, error) {
	cutSet := map[int]bool{}
	addCuts := func(r table.Rect) {
		for _, rng := range m.ranges {
			for _, edge := range [2]int{rng.baseCol, rng.baseCol + rng.cols} {
				if off := edge - r.C0; off > 0 && off < r.Cols {
					cutSet[off] = true
				}
			}
		}
	}
	addCuts(a)
	addCuts(b)
	cuts := make([]int, 0, len(cutSet)+2)
	cuts = append(cuts, 0)
	for off := range cutSet {
		cuts = append(cuts, off)
	}
	sort.Ints(cuts)
	cuts = append(cuts, a.Cols)

	type chunk struct {
		lo, hi   int
		ska, skb []float64
		erra     error
		errb     error
	}
	chunks := make([]chunk, len(cuts)-1)
	sub, cancel, timeout := c.subDeadline(ctx)
	defer cancel()
	var wg sync.WaitGroup
	fetch := func(r table.Rect, dst *[]float64, errDst *error) {
		defer wg.Done()
		i := m.rangeIdxFor(r.C0, r.C0+r.Cols)
		if i < 0 {
			*errDst = unavailablef("no shard known for cols %s", colRange(r.C0, r.C0+r.Cols))
			return
		}
		rng := m.ranges[i]
		res, err := subQuery(c, sub, rng, func(qctx context.Context, ep *endpoint) (*server.SketchResult, error) {
			res, err := ep.cl.Sketch(qctx, localRect(rng, r), timeout)
			if err == nil && res.BaseCol != rng.baseCol {
				return nil, staleBase(ep.url, res.BaseCol, rng)
			}
			return res, err
		})
		if err != nil {
			*errDst = err
			return
		}
		*dst = res.Sketch
	}
	for i := range chunks {
		chunks[i].lo, chunks[i].hi = cuts[i], cuts[i+1]
		ca := table.Rect{R0: a.R0, C0: a.C0 + chunks[i].lo, Rows: a.Rows, Cols: chunks[i].hi - chunks[i].lo}
		cb := table.Rect{R0: b.R0, C0: b.C0 + chunks[i].lo, Rows: b.Rows, Cols: chunks[i].hi - chunks[i].lo}
		wg.Add(2)
		go fetch(ca, &chunks[i].ska, &chunks[i].erra)
		go fetch(cb, &chunks[i].skb, &chunks[i].errb)
	}
	wg.Wait()

	sumA, sumB := make([]float64, m.k), make([]float64, m.k)
	var missing []string
	got := 0
	for i := range chunks {
		ch := &chunks[i]
		for _, err := range []error{ch.erra, ch.errb} {
			if err == nil {
				continue
			}
			if qe := queryErr(err); qe != nil {
				return answer{}, qe
			}
		}
		if ch.erra != nil || ch.errb != nil {
			// Drop the chunk from BOTH rectangles: the remaining sums
			// compare the same column projection of a and b, an honest
			// (if narrower) distance, instead of comparing mismatched
			// supports.
			if ch.erra != nil {
				missing = append(missing, colRange(a.C0+ch.lo, a.C0+ch.hi))
			}
			if ch.errb != nil {
				missing = append(missing, colRange(b.C0+ch.lo, b.C0+ch.hi))
			}
			continue
		}
		got++
		for l := range sumA {
			sumA[l] += ch.ska[l]
			sumB[l] += ch.skb[l]
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

// querySketch fetches q's sketch from its owner shard. The owner is
// required: without q's sketch there is nothing to compare, so owner
// unavailability is always a 503, never a partial answer.
func (c *Coordinator) querySketch(ctx context.Context, m *shardMap, q table.Rect, timeout time.Duration) (*shardRange, []float64, error) {
	i := m.rangeIdxFor(q.C0, q.C0+q.Cols)
	if i < 0 {
		if m.inGap(q.C0, q.C0+q.Cols) {
			return nil, nil, unavailablef("no shard known for cols %s; register a replacement",
				colRange(q.C0, q.C0+q.Cols))
		}
		return nil, nil, fmt.Errorf("query rect %v spans a shard boundary", q)
	}
	rng := m.ranges[i]
	res, err := subQuery(c, ctx, rng, func(qctx context.Context, ep *endpoint) (*server.SketchResult, error) {
		res, err := ep.cl.Sketch(qctx, localRect(rng, q), timeout)
		if err == nil && res.BaseCol != rng.baseCol {
			return nil, staleBase(ep.url, res.BaseCol, rng)
		}
		return res, err
	})
	if err != nil {
		if qe := queryErr(err); qe != nil {
			return nil, nil, qe
		}
		return nil, nil, unavailablef("query owner shard (%s) unreachable: %v", rng, err)
	}
	return rng, res.Sketch, nil
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

// fanBest posts q's sketch to every shard range and collects bests.
func (c *Coordinator) fanBest(ctx context.Context, m *shardMap, owner *shardRange, qsk []float64, q table.Rect, assign bool, timeout time.Duration) []shardBest {
	bests := make([]shardBest, len(m.ranges))
	var wg sync.WaitGroup
	for i, rng := range m.ranges {
		wg.Add(1)
		go func(i int, rng *shardRange) {
			defer wg.Done()
			req := &server.SketchQueryRequest{Sketch: qsk}
			if rng == owner && !assign {
				req.Exclude = server.FormatRect(localRect(rng, q))
			}
			res, err := subQuery(c, ctx, rng, func(qctx context.Context, ep *endpoint) (*server.SketchBest, error) {
				var res *server.SketchBest
				var err error
				if assign {
					res, err = ep.cl.SketchAssign(qctx, req, timeout)
				} else {
					res, err = ep.cl.SketchNearest(qctx, req, timeout)
				}
				if err == nil && res.BaseCol != rng.baseCol {
					return nil, staleBase(ep.url, res.BaseCol, rng)
				}
				return res, err
			})
			if err != nil {
				bests[i] = shardBest{rngIdx: i, err: err}
				return
			}
			local := res.Tile
			if assign {
				local = res.Medoid
			}
			bests[i] = shardBest{
				rngIdx: i, tile: m.globalTile(rng, local),
				cluster: res.Cluster, dist: res.Distance, ok: true,
			}
		}(i, rng)
	}
	wg.Wait()
	return bests
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

// opScan answers nearest (the best tile over every shard's grid) or
// assign (the best medoid over every shard's clustering): one merge,
// parameterised the way fanBest is.
func (c *Coordinator) opScan(ctx context.Context, m *shardMap, q table.Rect, mode string, allowPartial, assign bool) (answer, error) {
	what := "nearest"
	if assign {
		what = "assign"
		if m.clusters == 0 {
			return answer{}, &errNotFound{msg: "snapshot built without clustering"}
		}
	}
	if err := c.checkTileSized(m, q); err != nil {
		return answer{}, err
	}
	sub, cancel, timeout := c.subDeadline(ctx)
	defer cancel()
	if len(m.ranges) == 1 && len(m.gaps) == 0 {
		// Whole table on one shard (possibly replicated): proxy any
		// mode verbatim and translate indices (identity when the shard
		// starts at column 0). With gaps the lone survivor does NOT get
		// this path: its answer would ignore the lost columns without
		// saying so — it must go through the merge and come back tagged.
		return c.proxyScan(sub, m, q, mode, assign)
	}
	if mode == server.ModeExact {
		return answer{}, fmt.Errorf("mode=exact %s needs the whole tile grid on one shard (%d shards configured); use mode=sketch", what, len(m.ranges))
	}
	owner, qsk, err := c.querySketch(sub, m, q, timeout)
	if err != nil {
		return answer{}, err
	}
	bests := c.fanBest(sub, m, owner, qsk, q, assign, timeout)
	for _, b := range bests {
		if b.err != nil {
			if qe := queryErr(b.err); qe != nil {
				return answer{}, qe
			}
		}
	}
	best, missingIdx, found := mergeBests(bests)
	missing := missingSpans(m, missingIdx)
	if len(missing) > 0 && !allowPartial {
		return answer{}, unavailablef("cols %v unreachable and partial=deny", missing)
	}
	if !found {
		return answer{}, unavailablef("no shard reachable for %s(%v)", what, q)
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
