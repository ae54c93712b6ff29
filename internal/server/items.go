package server

import (
	"context"
	"errors"
	"math"

	"repro/internal/prune"
	"repro/internal/table"
)

// Item runners: the one body per operation that a single GET, a batch
// item and (for scans) nearest and assign share. A single GET is the
// runner on one item; POST /v1/batch/{distance,nearest,assign} carries
// up to DefaultMaxBatch items and pays the per-request overhead — HTTP
// round trip, JSON decode/encode, deadline setup, and above all
// admission — once, while each item's bytes stay the single query's
// bytes by construction. Each item makes its own tier decision. A scan
// item (nearest, assign) makes it at the instant it starts, so a scan
// batch under pressure degrades mid-flight exactly like a stream of
// singles would. A distance batch decides every item's tier in
// eachDistance's pre-pass, before the first item computes, so its later
// items are tiered against the load and the deadline left at that
// instant; an auto item still falls back to the sketch tier if the
// deadline expires while it runs.

// sketchFallback reports whether an exact-tier failure should be
// retried on the sketch tier: the deadline expired mid-computation on
// an auto query, and the O(k) sketch path can still answer within a
// detached (cancellation-free) context.
func sketchFallback(ctx context.Context, err error, reason string) (context.Context, bool) {
	if reason != "" || !isDeadline(err) { // not an auto-exact attempt, or not a deadline
		return nil, false
	}
	return context.WithoutCancel(ctx), true
}

// degraded reports whether reason tags a sketch-tier answer the client
// did not ask for.
func degraded(reason string) bool { return reason == ReasonLoad || reason == ReasonDeadline }

// pruneBody converts engine statistics into the wire shape and bumps
// the process-global prune counters. epsilon and delta are mode=prune's
// knobs, echoed (0 omits them); the margin is always exact, and the
// sketch-lane and pruned-candidate counts always 0.
func pruneBody(st prune.Stats, epsilon, delta float64) *PruneStats {
	mPrunedCoordinates.Add(st.PrunedCoordinates())
	mScreenSurvivors.Add(int64(st.ScreenSurvivors))
	return &PruneStats{
		Margin: MarginExact, Epsilon: epsilon, Delta: delta,
		Candidates:        st.Candidates,
		ScreenSurvivors:   st.ScreenSurvivors,
		RefineAbandoned:   st.RefineAbandoned,
		CellsEvaluated:    st.CellsEvaluated,
		CoordinatesTotal:  st.CoordinatesTotal,
		PrunedCoordinates: st.PrunedCoordinates(),
	}
}

// distanceRects parses and bounds-checks a distance item's operands.
func distanceRects(sn *Snapshot, it BatchItem) (a, b table.Rect, err error) {
	if a, err = ParseRect(it.A); err != nil {
		return a, b, err
	}
	if b, err = ParseRect(it.B); err != nil {
		return a, b, err
	}
	if err = sn.validRect(a); err != nil {
		return a, b, err
	}
	return a, b, sn.validRect(b)
}

// itemDistance is the distance item runner.
func (s *Server) itemDistance(ctx context.Context, sn *Snapshot, it BatchItem, kn knobs) (any, bool, error) {
	a, b, err := distanceRects(sn, it)
	if err != nil {
		return nil, false, err
	}
	mode, reason := s.tier(ctx, kn.mode)
	res, err := s.distanceAt(ctx, sn, a, b, mode, reason)
	if err != nil {
		return nil, false, err
	}
	return &res, res.Degraded, nil
}

// errNoFiniteDistance refuses a distance that is not a number a body can
// carry: cells near the end of float64's range are finite, their
// differences and sketch lanes need not be. It is the request's 400, as
// "no candidate …" is nearest's and assign's.
var errNoFiniteDistance = errors.New("no finite distance between a and b")

// distanceResult is the answer d makes on tier, or the refusal of a d
// that is not finite.
func distanceResult(d float64, tier, reason string) (DistanceResult, error) {
	if math.IsInf(d, 0) || math.IsNaN(d) {
		return DistanceResult{}, errNoFiniteDistance
	}
	return DistanceResult{Distance: d, Tier: tier, Degraded: degraded(reason), Reason: reason}, nil
}

// distanceAt answers one distance query on the tier chosen for it: the
// exact tier when asked for or allowed, the sketch tier when asked for,
// degraded to, or fallen back to mid-computation.
func (s *Server) distanceAt(ctx context.Context, sn *Snapshot, a, b table.Rect, mode, reason string) (DistanceResult, error) {
	if mode == ModeExact || (mode == ModeAuto && reason == "") {
		d, err := sn.ExactDistance(ctx, a, b, s.cfg.Workers)
		if err == nil {
			return distanceResult(d, TierExact, "")
		}
		if _, ok := sketchFallback(ctx, err, reason); mode == ModeExact || !ok {
			return DistanceResult{}, err
		}
		reason = ReasonDeadline
		mDegraded.Add(1)
	}
	d, err := sn.SketchDistance(a, b)
	if err != nil {
		return DistanceResult{}, err
	}
	return distanceResult(d, TierSketch, reason)
}

// itemScan is the nearest (tiles) or assign (medoids) item runner.
func (s *Server) itemScan(assign bool) itemFunc {
	return func(ctx context.Context, sn *Snapshot, it BatchItem, kn knobs) (any, bool, error) {
		q, err := ParseRect(it.Q)
		if err != nil {
			return nil, false, err
		}
		mode, reason := s.tier(ctx, kn.mode)
		return s.scanAt(ctx, sn, assign, q, kn, mode, reason)
	}
}

// scanAt answers one nearest-candidate query on the tier chosen for it.
// The exact and pruned tiers run one engine, progressiveScan: mode=exact,
// mode=prune and the auto tier get the same answer, mode=prune tagged
// pruned with its knobs echoed, and the auto tier and mode=prune also
// report what the scan avoided.
func (s *Server) scanAt(ctx context.Context, sn *Snapshot, assign bool, q table.Rect, kn knobs, mode, reason string) (any, bool, error) {
	if mode != ModeSketch {
		idx, d, st, err := sn.progressiveScan(ctx, assign, q, s.cfg.Workers)
		if err == nil {
			tier, ps := TierExact, (*PruneStats)(nil)
			switch mode {
			case ModePrune:
				tier, ps = TierPruned, pruneBody(st, kn.epsilon, kn.delta)
			case ModeAuto:
				ps = pruneBody(st, 0, 0)
			}
			return sn.scanResult(assign, idx, d, tier, "", ps), false, nil
		}
		fctx, ok := sketchFallback(ctx, err, reason)
		if mode != ModeAuto || !ok {
			return nil, false, err
		}
		ctx, reason = fctx, ReasonDeadline
		mDegraded.Add(1)
	}
	idx, d, err := sn.sketchScanRect(ctx, assign, q)
	if err != nil {
		return nil, false, err
	}
	return sn.scanResult(assign, idx, d, TierSketch, reason, nil), degraded(reason), nil
}

// scanResult is the wire shape of a scan's answer: the winning tile for
// nearest, the winning cluster and its medoid's tile for assign.
func (sn *Snapshot) scanResult(assign bool, idx int, d float64, tier, reason string, ps *PruneStats) any {
	if assign {
		return &AssignResult{
			Cluster: idx, Medoid: sn.medoids[idx], Distance: d, Tier: tier,
			Degraded: degraded(reason), Reason: reason, Prune: ps,
		}
	}
	return &NearestResult{
		Tile: idx, Rect: FormatRect(sn.tiles[idx]), Distance: d, Tier: tier,
		Degraded: degraded(reason), Reason: reason, Prune: ps,
	}
}

// itemHook runs the test-only per-item fault hook.
func (s *Server) itemHook(op string, item int) error {
	if s.cfg.ItemHook == nil {
		return nil
	}
	return s.cfg.ItemHook(op, item)
}

// batchEach answers a batch one item after the other through the
// operation's item runner; op is the name Config.ItemHook sees.
func (s *Server) batchEach(op string, item itemFunc) func(context.Context, *Snapshot, knobs, []BatchItem) *BatchResponse {
	return func(ctx context.Context, sn *Snapshot, kn knobs, items []BatchItem) *BatchResponse {
		resp := NewBatchResponse(len(items))
		for i, it := range items {
			if err := s.itemHook(op, i); err != nil {
				s.pipe.Item(resp, i, nil, false, err)
				continue
			}
			res, degraded, err := item(ctx, sn, it, kn)
			s.pipe.Item(resp, i, res, degraded, err)
		}
		return resp
	}
}

// batchDistance answers a distance batch: eachDistance over its items.
func (s *Server) batchDistance(ctx context.Context, sn *Snapshot, kn knobs, items []BatchItem) *BatchResponse {
	resp := NewBatchResponse(len(items))
	s.eachDistance(ctx, sn, kn.mode, len(items), func(i int) (table.Rect, table.Rect, error) {
		return distanceRects(sn, items[i])
	}, func(i int, res any, degraded bool, err error) { s.pipe.Item(resp, i, res, degraded, err) })
	return resp
}

// eachDistance answers n distance items in mode. It is batchEach with a
// pre-pass: every item's operands are read (rects) and tiered first, the
// sketch-tier items go through the batch kernel together (their
// rectangles resolved before the first lane is read, one set of scratch
// for all of them), and then every item is settled in order (put) — a
// kernel item from its estimate, the rest by distanceAt as a single
// query would be, including its mid-computation sketch fallback.
func (s *Server) eachDistance(ctx context.Context, sn *Snapshot, mode string, n int, rects func(i int) (a, b table.Rect, err error), put func(i int, res any, degraded bool, err error)) {
	type ditem struct {
		a, b         table.Rect
		mode, reason string
		err          error // refused before a tier was chosen
		kernel       int   // index among the kernel's items, −1 for an item that runs alone
	}
	items := make([]ditem, n)
	as := make([]table.Rect, 0, n)
	bs := make([]table.Rect, 0, n)
	for i := range items {
		d := &items[i]
		d.kernel = -1
		if d.err = s.itemHook("distance", i); d.err != nil {
			continue
		}
		if d.a, d.b, d.err = rects(i); d.err != nil {
			continue
		}
		d.mode, d.reason = s.tier(ctx, mode)
		if d.mode == ModeSketch && d.a.Rows == d.b.Rows && d.a.Cols == d.b.Cols {
			d.kernel = len(as)
			as, bs = append(as, d.a), append(bs, d.b)
		}
	}

	// If the kernel rejects the batch (e.g. an unsketchable rect), every
	// item runs alone below, and the one at fault fails with exactly the
	// message its single query would have produced.
	var ds []float64
	if len(as) > 0 {
		ds, _ = sn.pool.DistanceBatch(as, bs, nil)
	}

	var res DistanceResult // boxed once for all the items
	for i := range items {
		d, err := &items[i], items[i].err
		switch {
		case err != nil:
			res = DistanceResult{}
		case d.kernel >= 0 && ds != nil:
			res, err = distanceResult(ds[d.kernel], TierSketch, d.reason)
		default:
			res, err = s.distanceAt(ctx, sn, d.a, d.b, d.mode, d.reason)
		}
		put(i, &res, res.Degraded, err)
	}
}
