package server

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/table"
)

// Shard-side scatter-gather surface. A coordinator (internal/coord)
// treats this server as one shard of a table sharded along the time
// (column) axis: it probes one HTTP route and sends three sub-query ops,
// each one frame (frame.go) of up to DefaultMaxBatch items on a held
// connection (conn.go), answered in shard-LOCAL coordinates:
//
//   - GET /v1/shardinfo   cheap self-description + snapshot generation
//   - SubSketch           O(k) pool sketch of each rectangle
//   - SubNearest          best local tile for each query
//   - SubAssign           best local medoid for each query
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
	})
}

// The sub-query ops run the pipeline every query runs (run) minus the
// tier machinery: they are always the O(k) sketch tier, so there is
// nothing to degrade to. Under saturation they shed with 503 +
// Retry-After like any other query, which is exactly the signal the
// coordinator's hedging and partial-answer machinery feeds on.

// subOp is what one sub-query op does: name is what Config.Hook sees and
// errors say; scan is false for SubSketch, whose items are rectangles
// only; assign picks the medoids over the tiles as the scan's candidates.
type subOp struct {
	name         string
	scan, assign bool
}

// subOps are the ops by their envelope code; an unknown code has no name.
var subOps = [...]subOp{
	SubSketch:  {"sketch", false, false},
	SubNearest: {"sketch/nearest", true, false},
	SubAssign:  {"sketch/assign", true, true},
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
func decodeSub(sn *Snapshot, gen int64, op subOp, timeoutMS int, body io.Reader, length int64) (request, error) {
	if op.name == "" {
		return request{}, errSever
	}
	if timeoutMS < 0 {
		return request{}, fmt.Errorf("bad timeout_ms %d", timeoutMS)
	}
	if op.scan {
		if _, err := sn.scanSet(op.assign); err != nil {
			return request{}, err
		}
	}
	f, err := readSubFrame(body, length, sn.pool.K(), !op.scan, op.name)
	if err != nil {
		return request{}, err
	}
	if err := sn.checkSubFrame(f); err != nil {
		f.items.free()
		return request{}, err
	}
	return request{
		timeoutMS: timeoutMS, weight: f.n, items: mShardSubqueryItems, release: f.items.free,
		run: func(ctx context.Context) (any, error) { return sn.runSub(ctx, f, op.scan, op.assign, gen) },
	}, nil
}

// checkSubFrame validates the items of a frame against the snapshot.
func (sn *Snapshot) checkSubFrame(f *subFrame) error {
	if f.rects {
		for i := 0; i < f.n; i++ {
			if err := sn.validRect(f.rect(i)); err != nil {
				return fmt.Errorf("item %d: %w", i, err)
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
	out := newSubAnswer(f.n, f.k, f.rects, gen, sn.pool.BaseCol())
	for i := 0; i < f.n; i++ {
		if err := ctx.Err(); err != nil {
			out.free()
			return nil, err
		}
		var (
			qsk   []float64
			self  *table.Rect
			lanes []float64
			exact bool
			err   error
		)
		if f.rects {
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
			self, lanes, exact = &q, qsk, !scan && sn.pool.IsExact(q)
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
		out.putOK(exact, tile, cluster, medoid, d, lanes)
	}
	return out, nil
}
