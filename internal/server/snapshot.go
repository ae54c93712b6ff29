package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lpnorm"
	"repro/internal/parallel"
	"repro/internal/table"
)

// SnapshotConfig parameterizes BuildSnapshot's derived query state.
type SnapshotConfig struct {
	// TileRows, TileCols set the grid tile size /v1/nearest and
	// /v1/assign operate on. Both must be pool-sketchable extents.
	TileRows, TileCols int
	// Clusters is the k of the k-medoids clustering over tile sketches
	// backing /v1/assign. 0 disables clustering (assign answers 404).
	Clusters int
	// Seed drives the clustering initialization.
	Seed uint64
	// Workers bounds goroutines during the build (tile sketching and
	// clustering). 0 means all cores. Results are identical regardless.
	Workers int
}

// Snapshot is the immutable state one server generation answers queries
// from: the table, its dyadic sketch pool, the tile grid with
// precomputed pool sketches, and a medoid clustering of the tiles. All
// methods are safe for concurrent use; the serving path swaps whole
// snapshots atomically (Server.Swap) and never mutates one.
type Snapshot struct {
	tb   *table.Table
	pool *core.Pool
	lp   lpnorm.P

	grid  *table.Grid
	tiles []table.Rect
	// Pool sketch per tile, candidate-major in one array: tile i's k lanes
	// are tileSketches[i*k:(i+1)*k], and sketches[i] is a view of them.
	tileSketches []float64
	sketches     [][]float64
	// Marginal summary per tile (lpnorm.Marginals: its TileRows row sums,
	// then Σ cell, then Σ|cell|), laid out as tileSketches with stride
	// TileRows+2 — what the exact engine bounds a candidate's distance from
	// before it reads a cell.
	tileMarginals []float64

	clusters        int
	assign          []int        // tile -> cluster
	medoids         []int        // cluster -> tile index of its medoid
	medoidRects     []table.Rect // cluster -> medoid tile rectangle
	medoidSketches  []float64    // cluster -> medoid tile sketch, laid out as tileSketches
	medoidMarginals []float64    // cluster -> medoid tile marginals, laid out as tileMarginals

	// skBuf recycles k-length query-sketch buffers across requests, and
	// mgBuf the query's marginals, so the sketch-tier and progressive
	// paths allocate O(1) steady-state. They never change an answer: a
	// buffer is fully overwritten before use and returned afterwards.
	skBuf, mgBuf sync.Pool

	// refs counts who may still read the snapshot: the owner reference
	// BuildSnapshot creates (transferred to the server by Swap) plus one
	// Retain per in-flight request. When it reaches zero the onRelease
	// closers run — segment-mode snapshots release their segstore.View
	// there, which is what keeps a compaction from unmapping bytes a
	// query is still reading. Heap-backed snapshots have no closers and
	// the count is inert.
	refs      atomic.Int64
	onRelease []func()
}

// OnRelease registers fn to run once when the snapshot's reference
// count reaches zero. Must be called before the snapshot is published
// (closers are not synchronized with Retain/Release).
func (sn *Snapshot) OnRelease(fn func()) { sn.onRelease = append(sn.onRelease, fn) }

// Retain adds a reference. The serving path calls it under the
// server's acquire lock; other owners (tests, the ingester) may call it
// any time they already hold a reference.
func (sn *Snapshot) Retain() { sn.refs.Add(1) }

// Release drops a reference, running the onRelease closers at zero.
// Zero is final: the snapshot must not be used afterwards.
func (sn *Snapshot) Release() {
	if n := sn.refs.Add(-1); n > 0 {
		return
	} else if n < 0 {
		panic("server: snapshot reference count went negative")
	}
	for _, fn := range sn.onRelease {
		fn()
	}
}

// getSketchBuf hands out a k-capacity buffer for Pool.Sketch.
func (sn *Snapshot) getSketchBuf() *[]float64 {
	if bp, ok := sn.skBuf.Get().(*[]float64); ok {
		return bp
	}
	buf := make([]float64, sn.pool.K())
	return &buf
}

func (sn *Snapshot) putSketchBuf(bp *[]float64) { sn.skBuf.Put(bp) }

// marginals appends rect's marginal summary to dst.
func (sn *Snapshot) marginals(dst []float64, rect table.Rect) []float64 {
	return lpnorm.Marginals(dst, rect.Rows, func(r int) []float64 { return sn.rectRow(rect, r) })
}

// BuildSnapshot derives the serving state from a table and its sketch
// pool. The pool must have been built over exactly tb (dimensions are
// checked); tb must be finite (non-finite cells are rejected with
// table.ErrNonFinite, satisfying the ingress-hardening contract even
// for tables constructed in process). The context cancels the build —
// tile sketching and clustering poll it through the parallel layer.
func BuildSnapshot(ctx context.Context, tb *table.Table, pool *core.Pool, cfg SnapshotConfig) (*Snapshot, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := table.CheckFinite(tb); err != nil {
		return nil, err
	}
	if pr, pc := pool.TableDims(); pr != tb.Rows() || pc != tb.Cols() {
		return nil, fmt.Errorf("server: pool built over %dx%d, table is %dx%d",
			pr, pc, tb.Rows(), tb.Cols())
	}
	lp, err := lpnorm.NewP(pool.P())
	if err != nil {
		return nil, err
	}
	grid, err := table.NewGrid(tb.Rows(), tb.Cols(), cfg.TileRows, cfg.TileCols)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{
		tb: tb, pool: pool, lp: lp,
		grid: grid, clusters: cfg.Clusters,
	}
	sn.refs.Store(1) // the owner reference; Swap takes it over
	sn.tiles = make([]table.Rect, grid.NumTiles())
	for i := range sn.tiles {
		sn.tiles[i] = grid.Rect(i)
	}
	if err := pool.CanSketch(sn.tiles[0]); err != nil {
		return nil, fmt.Errorf("server: tile size not pool-sketchable: %w", err)
	}

	// Pool sketches and marginals per tile: disjoint slots, deterministic
	// at any worker count, cancellable between tiles.
	k, ms := pool.K(), cfg.TileRows+2
	sn.tileSketches = make([]float64, len(sn.tiles)*k)
	sn.sketches = make([][]float64, len(sn.tiles))
	sn.tileMarginals = make([]float64, len(sn.tiles)*ms)
	if err := parallel.ForCtx(ctx, parallel.Resolve(cfg.Workers), len(sn.tiles), func(i int) {
		sk, err := pool.Sketch(sn.tiles[i], sn.tileSketches[i*k:(i+1)*k:(i+1)*k])
		if err != nil {
			panic(err) // ruled out by the CanSketch check above
		}
		sn.sketches[i] = sk
		sn.marginals(sn.tileMarginals[i*ms:i*ms], sn.tiles[i])
	}); err != nil {
		return nil, err
	}

	if cfg.Clusters > 0 {
		workers := cfg.Workers
		if workers == 0 {
			workers = -1 // cluster.Config: negative means all cores
		}
		res, err := cluster.KMedoids(sn.sketches, pool.SketchDist(), cluster.Config{
			K: cfg.Clusters, Seed: cfg.Seed, Init: cluster.InitPlusPlus,
			Workers: workers, Context: ctx,
		})
		if err != nil {
			return nil, fmt.Errorf("server: clustering tiles: %w", err)
		}
		sn.assign = res.Assign
		sn.medoids = make([]int, cfg.Clusters)
		sn.medoidRects = make([]table.Rect, cfg.Clusters)
		for c, cent := range res.Centroids {
			// Medoids are actual points, so the centroid vector matches
			// some tile sketch bit-for-bit; lowest index wins on ties.
			idx := -1
			for i, s := range sn.sketches {
				if floatsEqual(s, cent) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("server: medoid %d not found among tile sketches", c)
			}
			sn.medoids[c] = idx
			sn.medoidRects[c] = sn.tiles[idx]
			sn.medoidSketches = append(sn.medoidSketches, sn.sketches[idx]...)
			sn.medoidMarginals = append(sn.medoidMarginals, sn.tileMarginals[idx*ms:(idx+1)*ms]...)
		}
	}
	return sn, nil
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Table returns the snapshot's table.
func (sn *Snapshot) Table() *table.Table { return sn.tb }

// Pool returns the snapshot's sketch pool.
func (sn *Snapshot) Pool() *core.Pool { return sn.pool }

// NumTiles returns the grid tile count.
func (sn *Snapshot) NumTiles() int { return len(sn.tiles) }

// Clusters returns the cluster count (0 when clustering is disabled).
func (sn *Snapshot) Clusters() int { return sn.clusters }

// TileRows returns the grid tile height (rows per tile).
func (sn *Snapshot) TileRows() int { return sn.grid.TileRows() }

// TileCols returns the grid tile width (columns per tile).
func (sn *Snapshot) TileCols() int { return sn.grid.TileCols() }

// validRect rejects rectangles outside the table.
func (sn *Snapshot) validRect(r table.Rect) error {
	if !r.In(sn.tb.Rows(), sn.tb.Cols()) {
		return fmt.Errorf("rect %v outside table %dx%d", r, sn.tb.Rows(), sn.tb.Cols())
	}
	return nil
}

// rectRow returns row r of rect as a slice aliasing the table storage.
func (sn *Snapshot) rectRow(rect table.Rect, r int) []float64 {
	off := (rect.R0+r)*sn.tb.Cols() + rect.C0
	return sn.tb.Data()[off : off+rect.Cols]
}

// ExactDistance computes the exact Lp distance between two equal-size
// rectangles, fanning the per-row power sums out over the parallel
// layer: the request deadline propagates as ctx (polled between row
// blocks) and the reduction is worker-count invariant, so answers are
// byte-identical at any worker count or load level.
func (sn *Snapshot) ExactDistance(ctx context.Context, a, b table.Rect, workers int) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("distance between different-size rects %v and %v", a, b)
	}
	sum, err := parallel.SumCtx(ctx, parallel.Resolve(workers), a.Rows, func(r int) float64 {
		return sn.lp.DistPowSum(sn.rectRow(a, r), sn.rectRow(b, r))
	})
	if err != nil {
		return 0, err
	}
	return math.Pow(sum, 1/sn.lp.Value()), nil
}

// SketchDistance answers the same query from the pool's compound dyadic
// sketches in O(k) — Theorem 6's degraded tier. It is Pool.Distance, the
// batch kernel's single item: pooled scratch, no allocation once warm.
func (sn *Snapshot) SketchDistance(a, b table.Rect) (float64, error) {
	return sn.pool.Distance(a, b)
}

// candSet is what a nearest-candidate scan runs over. The paper's
// k-means assignment step is a nearest-neighbour query over a different
// candidate set, and so it is here: /v1/nearest scans the grid tiles
// minus the query's own position, /v1/assign scans the cluster medoids.
// Candidate i's rectangle is rects[i], its pool sketch the k lanes
// sketches[i*k:(i+1)*k] and its marginal summary the TileRows+2 values
// marginals[i*(TileRows+2):(i+1)*(TileRows+2)].
type candSet struct {
	what      string // "tile" or "medoid", as the error texts name it
	rects     []table.Rect
	sketches  []float64
	marginals []float64
	skipSelf  bool // the query's own grid position is not a candidate
}

// scanSet resolves the candidate set of a nearest (tiles) or assign
// (medoids) scan.
func (sn *Snapshot) scanSet(assign bool) (candSet, error) {
	if !assign {
		return candSet{what: "tile", rects: sn.tiles, sketches: sn.tileSketches, marginals: sn.tileMarginals, skipSelf: true}, nil
	}
	if sn.clusters == 0 {
		return candSet{}, ErrNoClusters
	}
	return candSet{what: "medoid", rects: sn.medoidRects, sketches: sn.medoidSketches, marginals: sn.medoidMarginals}, nil
}

// querySet is scanSet for a query given as a rectangle, which must be
// one tile in size.
func (sn *Snapshot) querySet(assign bool, q table.Rect) (candSet, error) {
	set, err := sn.scanSet(assign)
	if err != nil {
		return set, err
	}
	return set, sn.checkTileSized(q)
}

// sketchScanRect is the sketch tier's scan: one O(k) compound
// sketch of q, then the O(k) estimator against every candidate.
func (sn *Snapshot) sketchScanRect(ctx context.Context, assign bool, q table.Rect) (int, float64, error) {
	if _, err := sn.querySet(assign, q); err != nil {
		return 0, 0, err
	}
	bq := sn.getSketchBuf()
	defer sn.putSketchBuf(bq)
	qsk, err := sn.pool.Sketch(q, *bq)
	if err != nil {
		return 0, 0, err
	}
	return sn.sketchScanVec(ctx, assign, qsk, &q)
}

// sketchScanVec is the scan half of sketchScanRect, taking the query
// sketch directly: the shard sub-query ops (SubNearest, SubAssign)
// feeds it sketches computed by ANOTHER shard, which are comparable to
// the local ones whenever (p, k, seed) match. exclude, when
// non-nil, names the query's own position — skipped by a tile scan on
// its owner shard, never by a medoid scan. The answer is the
// lowest-index argmin of the estimate (core.Pool.NearestSketch), so a
// local caller and a coordinator see byte-identical answers; the scan's
// work is counted once, here.
func (sn *Snapshot) sketchScanVec(ctx context.Context, assign bool, qsk []float64, exclude *table.Rect) (int, float64, error) {
	set, err := sn.scanSet(assign)
	if err != nil {
		return 0, 0, err
	}
	skip := -1
	if set.skipSelf && exclude != nil {
		skip = sn.tileIndex(*exclude)
	}
	best, d, full, err := sn.pool.NearestSketch(ctx, qsk, set.sketches, skip)
	n := len(set.rects)
	if skip >= 0 {
		n--
	}
	mScanCandidates.Add(int64(n))
	mScanSelections.Add(int64(full))
	if err != nil {
		return 0, 0, err
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("no candidate %s", set.what)
	}
	return best, d, nil
}

// tileIndex returns the index of the grid tile at exactly r, or -1.
func (sn *Snapshot) tileIndex(r table.Rect) int {
	g := sn.grid
	tr, tc := r.R0/g.TileRows(), r.C0/g.TileCols()
	if r.R0 < 0 || r.C0 < 0 || tr >= g.GridRows() || tc >= g.GridCols() {
		return -1
	}
	if i := g.Index(tr, tc); sn.tiles[i] == r {
		return i
	}
	return -1
}

// The exported scans are the entry points of embedding callers, the
// benchmark's per-layer probes and the oracle tests: nearest answers a
// grid tile index, assign a cluster and its medoid's tile index.

// ExactNearest scans every grid tile (excluding q's own position) for
// the smallest exact Lp distance to q.
func (sn *Snapshot) ExactNearest(ctx context.Context, q table.Rect, workers int) (int, float64, error) {
	idx, d, _, err := sn.progressiveScan(ctx, false, q, workers)
	return idx, d, err
}

// ExactAssign returns the cluster whose medoid tile is nearest to q
// under the exact Lp distance.
func (sn *Snapshot) ExactAssign(ctx context.Context, q table.Rect) (cluster, medoid int, d float64, err error) {
	c, d, _, err := sn.progressiveScan(ctx, true, q, 1)
	return sn.medoidOf(c, d, err)
}

// SketchNearest is ExactNearest on the sketch tier.
func (sn *Snapshot) SketchNearest(ctx context.Context, q table.Rect) (int, float64, error) {
	return sn.sketchScanRect(ctx, false, q)
}

// SketchAssign is ExactAssign on the sketch tier.
func (sn *Snapshot) SketchAssign(ctx context.Context, q table.Rect) (cluster, medoid int, d float64, err error) {
	return sn.medoidOf(sn.sketchScanRect(ctx, true, q))
}

// SketchAssignVec is SketchAssign for a query given as its sketch.
func (sn *Snapshot) SketchAssignVec(ctx context.Context, qsk []float64) (cluster, medoid int, d float64, err error) {
	return sn.medoidOf(sn.sketchScanVec(ctx, true, qsk, nil))
}

// medoidOf turns a medoid scan's answer into assign's: the winning
// candidate is the cluster, its medoid the tile the clustering chose.
func (sn *Snapshot) medoidOf(c int, d float64, err error) (cluster, medoid int, _ float64, _ error) {
	if err != nil {
		return 0, 0, 0, err
	}
	return c, sn.medoids[c], d, nil
}

func (sn *Snapshot) checkTileSized(q table.Rect) error {
	if err := sn.validRect(q); err != nil {
		return err
	}
	if q.Rows != sn.grid.TileRows() || q.Cols != sn.grid.TileCols() {
		return fmt.Errorf("query rect %v must match the %dx%d tile size",
			q, sn.grid.TileRows(), sn.grid.TileCols())
	}
	return nil
}

// ErrNoClusters refuses assign on a snapshot built without clustering:
// 404, from a server and from a coordinator in front of one.
var ErrNoClusters error = &HTTPError{Code: http.StatusNotFound, Msg: "snapshot built without clustering"}
