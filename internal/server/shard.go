package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/table"
)

// Shard-side scatter-gather surface. A coordinator (internal/coord)
// treats this server as one shard of a table sharded along the time
// (column) axis: it probes one HTTP route and sends four sub-query ops,
// each one frame (frame.go) of up to DefaultMaxBatch items on a held
// connection (conn.go), answered in shard-LOCAL coordinates:
//
//   - GET /v1/shardinfo   cheap self-description + snapshot generation
//   - SubSketch           O(k) pool sketch of each rectangle
//   - SubNearest          best local tile for each query
//   - SubAssign           best local medoid for each query
//   - SubWhole            each item as the batch route answers it
//
// A scan query is a sketch — produced by this or any merge-compatible
// shard — or a rectangle this shard owns: "sketch it, then scan", the
// fused owner hop, answered with the sketch and the local best together.
//
// The merge algebra the coordinator applies is sound because the pool's
// random matrices depend only on (dyadic size, set, lane) — never on
// position — so equal (p, k, seed) make sketches from different shards
// mutually comparable, and equal (up to the float accumulation order of
// each shard's own FFT build) to the ones an unsharded pool over the
// full table would produce for the same data. Every answer frame echoes
// the snapshot generation it was computed from; one request resolves the
// snapshot exactly once, so a frame — an item's sketch and the scan run
// with it included — never mixes generations even while Swap runs
// concurrently.

// handleShardInfo answers /v1/shardinfo. Like /healthz it bypasses
// admission: a coordinator probes it to build and refresh its shard map
// (BaseCol moves when a sliding window trims; Generation moves on every
// publish) and it must stay cheap and shed-proof under load.
func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	sn, gen := s.current()
	if sn == nil || s.Draining() {
		// A draining (lame-duck) shard reports not-ready so coordinators
		// route away from it, while queries already in flight still answer.
		WriteJSON(w, http.StatusOK, &ShardInfo{Ready: false})
		return
	}
	pool := sn.Pool()
	WriteJSON(w, http.StatusOK, &ShardInfo{
		Ready:    true,
		BaseCol:  pool.BaseCol(),
		Rows:     sn.tb.Rows(),
		Cols:     sn.tb.Cols(),
		TileRows: sn.TileRows(),
		TileCols: sn.TileCols(),
		Tiles:    sn.NumTiles(),
		Clusters: sn.Clusters(),

		P: pool.P(), K: pool.K(), Seed: pool.Seed(),

		Generation:  gen,
		SubProtocol: SubFrameVersion,
		MaxInflight: s.cfg.MaxInflight, MaxQueue: s.cfg.MaxQueue,
	})
}

// The sub-query ops run the pipeline every query runs (run). Under
// saturation they shed with 503 + Retry-After like any other query,
// which is exactly the signal the coordinator's hedging and
// partial-answer machinery feeds on.

// subOp is what one sub-query op does: name is what Config.Hook sees and
// errors say; scan is false for SubSketch, whose items are rectangles
// only; assign picks the medoids over the tiles as the scan's candidates;
// whole answers the items as the frame's route does.
type subOp struct {
	name                string
	scan, assign, whole bool
}

// subOps are the ops by their envelope code; an unknown code has no name.
var subOps = [...]subOp{
	SubSketch:  {name: "sketch"},
	SubNearest: {name: "sketch/nearest", scan: true},
	SubAssign:  {name: "sketch/assign", scan: true, assign: true},
	SubWhole:   {name: "whole", whole: true},
}

// takes reports whether the op answers items of kind on route.
func (op subOp) takes(kind byte, route string) bool {
	switch {
	case op.whole && route == "distance":
		return kind == subKindPair
	case op.whole, !op.scan:
		return kind == subKindRect
	}
	return kind == subKindRect || kind == subKindSketch
}

// lookupSubOp resolves an envelope's op code.
func lookupSubOp(code byte) subOp {
	if int(code) < len(subOps) {
		return subOps[code]
	}
	return subOp{}
}

// decodeSub decodes and hardens one frame of op: its timeout_ms and the
// length bytes of body. An op no shard knows, or a length past what a
// frame to this pool can have, severs the connection. Every rectangle
// must lie in the table and every lane be finite (the ingress contract —
// a NaN would silently poison every estimator comparison downstream), or
// the frame is refused as a whole.
func (s *Server) decodeSub(sn *Snapshot, gen int64, op subOp, timeoutMS int, body io.Reader, length int64) (Request, error) {
	if op.name == "" {
		return Request{}, errSever
	}
	if timeoutMS < 0 {
		return Request{}, fmt.Errorf("bad timeout_ms %d", timeoutMS)
	}
	if op.scan {
		if _, err := sn.scanSet(op.assign); err != nil {
			return Request{}, err
		}
	}
	f, err := readSubFrame(body, length, sn.pool.K(), op)
	if err != nil {
		return Request{}, err
	}
	if err := sn.checkSubFrame(f); err != nil {
		f.items.free()
		return Request{}, err
	}
	run := func(ctx context.Context) (any, error) { return sn.runSub(ctx, f, op.scan, op.assign, gen) }
	if op.whole {
		run = func(ctx context.Context) (any, error) { return s.runWhole(ctx, sn, f, gen) }
	}
	return Request{TimeoutMS: timeoutMS, Weight: f.n, Items: mShardSubqueryItems, Release: f.items.free, Run: run}, nil
}

// checkSubFrame validates the items of a frame against the snapshot. A
// SubWhole frame's items are checked one by one as its batch route
// checks them (runWhole).
func (sn *Snapshot) checkSubFrame(f *subFrame) error {
	if f.route != "" {
		return nil
	}
	if f.kind != subKindSketch {
		per := subItemLen(f.kind, f.k) / subRectLen
		for i := 0; i < f.n*per; i++ {
			if err := sn.validRect(f.rect(i)); err != nil {
				return fmt.Errorf("item %d: %w", i/per, err)
			}
		}
		return nil
	}
	for l := 0; l < f.n*f.k; l++ {
		// All exponent bits set: NaN or ±Inf.
		if le.Uint64(f.items.b[8*l:])>>52&0x7ff == 0x7ff {
			return fmt.Errorf("item %d: sketch entry %d is not finite", l/f.k, l%f.k)
		}
	}
	return nil
}

// runSub answers the items of a frame in order into one answer frame. A
// rectangle item is sketched from the pool — the raw k-vector a
// coordinator compares with another shard's under the shared estimator
// or hands to the shards that do not own it — and on
// a scan route scanned with that very sketch, its own tile position
// skipped. The scan's answer is the local tile, or the local cluster's
// medoid tile, whose precomputed pool sketch is nearest to the query
// sketch under the O(k) estimator. Ties resolve to the lowest local
// index, which within a column-banded shard is also the lowest GLOBAL
// row-major index — the invariant that lets the coordinator's (distance,
// global index) best-merge reproduce an unsharded scan's choice exactly
// (distances agree to float rounding). Cluster ids are shard-local (each
// shard clusters its own tiles); the coordinator reports them alongside
// the shard that produced them. An item that cannot be answered fails
// alone; an expired deadline fails the frame, as it fails a single query.
func (sn *Snapshot) runSub(ctx context.Context, f *subFrame, scan, assign bool, gen int64) (*frameBuf, error) {
	buf := sn.getSketchBuf()
	defer sn.putSketchBuf(buf)
	rects, flags := f.kind == subKindRect, byte(0)
	if rects {
		flags = subFlagLanes
	}
	out := newSubAnswer(f.n, f.k, flags, gen, sn.pool.BaseCol())
	for i := 0; i < f.n; i++ {
		if err := ctx.Err(); err != nil {
			out.free()
			return nil, err
		}
		var (
			qsk   []float64
			self  *table.Rect
			lanes []float64
			err   error
		)
		if rects {
			q := f.rect(i)
			if scan {
				err = sn.checkTileSized(q)
			}
			if err == nil {
				qsk, err = sn.pool.Sketch(q, *buf)
			}
			if err != nil {
				out.putErr(err.Error())
				continue
			}
			self, lanes = &q, qsk
		} else {
			qsk = f.sketch(i, *buf)
		}
		var tile, cluster, medoid int
		var d float64
		if scan {
			if tile, d, err = sn.sketchScanVec(ctx, assign, qsk, self); isDeadline(err) {
				out.free()
				return nil, err
			} else if err != nil {
				out.putErr(err.Error())
				continue
			}
			if assign {
				cluster, medoid, tile = tile, sn.medoids[tile], sn.medoids[tile]
			}
		}
		out.putOK(tile, cluster, medoid, d, lanes)
	}
	return out, nil
}

// runWhole answers the items of a SubWhole frame in order into one
// answer frame, each as the frame's batch route answers it: through the
// same pre-pass (eachDistance) or item runner (batchEach), on the tier
// its mode picks, rendered as the route renders it. An item that cannot
// be answered fails alone, one whose deadline expired too, so the items
// answered before it are kept.
func (s *Server) runWhole(ctx context.Context, sn *Snapshot, f *subFrame, gen int64) (*frameBuf, error) {
	out := newSubAnswer(f.n, f.k, subFlagBodies, gen, sn.pool.BaseCol())
	put := func(_ int, res any, degraded bool, err error) {
		if err != nil {
			err = errors.New(s.pipe.itemText(err))
		}
		out.putWhole(res, degraded, err)
	}
	if f.route == "distance" {
		s.eachDistance(ctx, sn, f.mode, f.n, func(i int) (a, b table.Rect, err error) {
			a, b = f.rect(2*i), f.rect(2*i+1)
			if err = sn.validRect(a); err == nil {
				err = sn.validRect(b)
			}
			return a, b, err
		}, put)
		return out, nil
	}
	kn := knobs{mode: f.mode}
	for i := 0; i < f.n; i++ {
		if err := s.itemHook(f.route, i); err != nil {
			put(i, nil, false, err)
			continue
		}
		mode, reason := s.tier(ctx, f.mode)
		res, degraded, err := s.scanAt(ctx, sn, f.route == "assign", f.rect(i), kn, mode, reason)
		put(i, res, degraded, err)
	}
	return out, nil
}
