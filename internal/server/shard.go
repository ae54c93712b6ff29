package server

import (
	"context"
	"net/http"

	"repro/internal/table"
)

// Shard-side scatter-gather surface. A coordinator (internal/coord)
// treats this server as one shard of a table sharded along the time
// (column) axis and speaks three sub-query endpoints, all answering in
// shard-LOCAL coordinates:
//
//   - GET  /v1/shardinfo        cheap self-description + snapshot generation
//   - GET  /v1/sketch?rect=...  O(k) pool sketch of one rectangle
//   - POST /v1/sketch/nearest   best local tile for a posted query sketch
//   - POST /v1/sketch/assign    best local medoid for a posted query sketch
//
// The merge algebra the coordinator applies is sound because the pool's
// random matrices depend only on (dyadic size, set, lane) — never on
// position — so equal (p, k, seed, estimator) make sketches from
// different shards mutually comparable, and equal (up to the float
// accumulation order of each shard's own FFT build) to the ones an
// unsharded pool over the full table would produce for the same
// data. Every answer echoes the snapshot generation it was computed
// from; one request resolves the snapshot exactly once, so an answer
// never mixes generations even while Swap runs concurrently.

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
		Estimator: pool.Estimator().String(),

		Generation: gen,
	})
}

// The sub-query routes run the pipeline every query route runs (serve)
// minus the tier machinery: they are always the O(k) sketch tier, so
// there is nothing to degrade to. Under saturation they shed with 503 +
// Retry-After like any other query, which is exactly the signal the
// coordinator's hedging and partial-answer machinery feeds on.

// sketchOf answers GET /v1/sketch: the pool sketch of the rectangle,
// the raw k-vector a coordinator sums lane-wise with other shards'
// chunks (sketches are linear in the data) or differences against
// another rect's sketch.
func (sn *Snapshot) sketchOf(rect table.Rect, gen int64) (*SketchResult, error) {
	buf := sn.getSketchBuf()
	defer sn.putSketchBuf(buf)
	sk, err := sn.pool.Sketch(rect, *buf)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sk))
	copy(out, sk)
	return &SketchResult{
		Sketch: out, Exact: sn.pool.IsExact(rect), Generation: gen,
		BaseCol: sn.pool.BaseCol(),
	}, nil
}

// sketchBest answers POST /v1/sketch/nearest|assign: the local tile, or
// the local cluster's medoid tile, whose precomputed pool sketch is
// nearest to the posted query sketch under the O(k) estimator. Ties
// resolve to the lowest local index, which within a column-banded shard
// is also the lowest GLOBAL row-major index — the invariant that lets
// the coordinator's (distance, global index) best-merge reproduce an
// unsharded scan's choice exactly (distances agree to float rounding).
// Cluster ids are shard-local (each shard clusters its own tiles); the
// coordinator reports them alongside the shard that produced them.
func (sn *Snapshot) sketchBest(ctx context.Context, assign bool, qsk []float64, exclude *table.Rect, gen int64) (*SketchBest, error) {
	idx, d, err := sn.sketchScanVec(ctx, assign, qsk, exclude)
	if err != nil {
		return nil, err
	}
	best := &SketchBest{Tile: idx, Distance: d, Generation: gen, BaseCol: sn.pool.BaseCol()}
	if assign {
		best.Cluster, best.Medoid, best.Tile = idx, sn.medoids[idx], sn.medoids[idx]
	}
	best.Rect = FormatRect(sn.tiles[best.Tile])
	return best, nil
}
