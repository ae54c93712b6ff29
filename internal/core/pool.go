package core

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/fft"
	"repro/internal/parallel"
	"repro/internal/table"
)

// compoundSets is the number of independent sketch sets per dyadic size.
// Definition 4 tiles an arbitrary rectangle with four overlapping dyadic
// rectangles, each of which must come from an independent set so the
// summed sketch remains a stable-projection sketch.
const compoundSets = 4

// PoolOptions configures which canonical dyadic tile sizes a Pool
// precomputes. All (2^i)×(2^j) sizes with MinLogRows ≤ i ≤ MaxLogRows and
// MinLogCols ≤ j ≤ MaxLogCols are built. The zero value is not valid;
// use DefaultPoolOptions for a table-appropriate default.
type PoolOptions struct {
	MinLogRows, MaxLogRows int
	MinLogCols, MaxLogCols int
	Estimator              Estimator
	// Workers bounds the goroutines building plane sets concurrently.
	// 0 means GOMAXPROCS; 1 forces serial construction. Results are
	// identical regardless (each plane set's randomness is seed-derived).
	Workers int
	// Context, when non-nil, makes NewPool cancellable: workers poll it
	// between plane-set jobs and correlation pairs, and a cancelled build
	// returns ctx.Err() with no partial pool published. A build that
	// completes is byte-identical whether or not a context was set. The
	// finished Pool does not retain the context.
	Context context.Context
	// PanelCols is the panel width of the build: every dyadic column
	// size 2^j is correlated panel by panel through overlap-save slab
	// plans of width max(PanelCols, 2^j). 0 (the default) means one panel
	// per size, as wide as the table, whose slab plan is the table's own.
	// PanelCols > 0 is what makes Pool.Append incremental — an append
	// only recomputes panels whose slab reaches the new columns, and the
	// result is byte-identical to a from-scratch build because both paths
	// run the exact same per-panel FFTs. Pools of different PanelCols are
	// approximately (not bitwise) equal over the same data: FFT rounding
	// differs across transform sizes.
	PanelCols int
	// BaseCol records the absolute stream column the pool's column 0
	// corresponds to — metadata for sliding-window maintenance (the
	// ingest layer trims old days and re-bases the pool). It does not
	// affect sketch computation; see Pool.HighWaterCols.
	BaseCol int
}

// DefaultPoolOptions covers every dyadic size from 2×2 up to the largest
// that fits the table — the paper's full canonical collection
// (Theorem 6 builds all O(log² N) sizes).
func DefaultPoolOptions(t *table.Table) PoolOptions {
	return PoolOptions{
		MinLogRows: 1, MaxLogRows: log2Floor(t.Rows()),
		MinLogCols: 1, MaxLogCols: log2Floor(t.Cols()),
	}
}

func log2Floor(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("core: log2Floor(%d)", n))
	}
	return bits.Len(uint(n)) - 1
}

// Pool holds precomputed sketch plane sets for a canonical collection of
// dyadic tile sizes over one table (Theorem 6). It answers sketch and
// distance queries for arbitrary rectangles in O(k) time: exactly-dyadic
// rectangles read a single precomputed sketch; all others assemble a
// compound sketch from four overlapping dyadic sketches (Definition 4,
// Theorem 5, a 4(1+ε)-approximation).
//
// A Pool is immutable once NewPool returns; all query methods (Sketch,
// Distance, CanSketch, IsExact, ...) are safe for concurrent use.
type Pool struct {
	p          float64
	k          int
	rows, cols int // table dims
	seed       uint64
	baseCol    int // absolute stream column of table column 0
	opts       PoolOptions
	entries    map[[2]int][compoundSets]*PlaneSet

	// sealed is the sealed column count, in table-column units, uniform
	// across lanes: every tile whose last column is below sealed lives in
	// a sealed band viewing externally owned memory (segment file
	// mappings, see NewBandedPool / Reband), the rest is the heap fringe.
	// 0 for a pool nothing has sealed.
	sealed int
}

// NewPool precomputes plane sets for every configured dyadic size over t.
// Each size gets four independent Sketcher instances (seed-derived), so
// compound sketches satisfy the independence requirement of Theorem 5.
//
// Cost: O(compoundSets · k · N log N) time per size and
// compoundSets · k · N lanes (LaneBytes each) of memory per size,
// N = t.Size(). Callers with big tables should restrict the size range
// in opts.
func NewPool(t *table.Table, p float64, k int, seed uint64, opts PoolOptions) (*Pool, error) {
	return NewBandedPool(t, p, k, seed, opts, nil)
}

// NewBandedPool is NewPool with the tiles that end in table columns
// [0, sealedTo) adopted from the given sealed bands (typically
// segment-file mappings) instead of computed: only the panels from
// sealedTo on run their slab FFTs. Because sketcher randomness is
// column-position-independent and the panel grid is absolute, the result
// is byte-identical to NewPool over the same table — the sealed bands
// simply substitute previously computed bytes. A non-empty sealed
// requires opts.PanelCols to be a positive power of two, so every panel
// width divides the segment alignment max(PanelCols, 2^MaxLogCols).
//
// A panel's slab carries b − 1 columns of left context, which panel 0
// does not have. A pool built over columns [c, …) of a longer stream
// therefore equals the stream's pool bit for bit from its second panel
// on (and everywhere, given sealed bands cut from the stream's pool),
// but only to FFT rounding at the tiles of each size's first panel.
func NewBandedPool(t *table.Table, p float64, k int, seed uint64, opts PoolOptions, sealed []SealedBand) (*Pool, error) {
	if opts.MinLogRows < 0 || opts.MinLogCols < 0 ||
		opts.MinLogRows > opts.MaxLogRows || opts.MinLogCols > opts.MaxLogCols {
		return nil, fmt.Errorf("core: invalid pool size range %+v", opts)
	}
	if 1<<opts.MaxLogRows > t.Rows() || 1<<opts.MaxLogCols > t.Cols() {
		return nil, fmt.Errorf("core: pool max dyadic size %dx%d exceeds table %dx%d",
			1<<opts.MaxLogRows, 1<<opts.MaxLogCols, t.Rows(), t.Cols())
	}
	if opts.PanelCols < 0 || opts.BaseCol < 0 {
		return nil, fmt.Errorf("core: negative PanelCols %d or BaseCol %d", opts.PanelCols, opts.BaseCol)
	}
	sealedTo, err := validateSealedBands(sealed, opts, t.Cols())
	if err != nil {
		return nil, err
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Context = nil // the immutable Pool must not retain the build context
	baseCol := opts.BaseCol
	opts.BaseCol = 0 // pl.baseCol is authoritative (Append/trim move it)
	pl := &Pool{
		p: p, k: k, rows: t.Rows(), cols: t.Cols(), seed: seed, baseCol: baseCol, opts: opts,
		entries: make(map[[2]int][compoundSets]*PlaneSet),
		sealed:  sealedTo,
	}
	// Validate the sketcher configuration once up front so worker errors
	// can only be programming bugs, not user-input ones.
	if _, err := NewSketcher(p, k, 1<<opts.MinLogRows, 1<<opts.MinLogCols, seed, opts.Estimator); err != nil {
		return nil, err
	}

	type job struct{ i, j, s int }
	var jobs []job
	for i := opts.MinLogRows; i <= opts.MaxLogRows; i++ {
		for j := opts.MinLogCols; j <= opts.MaxLogCols; j++ {
			pl.entries[[2]int{i, j}] = [compoundSets]*PlaneSet{}
			for s := 0; s < compoundSets; s++ {
				jobs = append(jobs, job{i, j, s})
			}
		}
	}
	workers := parallel.Resolve(opts.Workers)

	// Allocate every (size, set) plane set with its seeded sketcher. Each
	// job writes only its own slot: results are position-addressed, not
	// scheduling-addressed, so construction is deterministic at any worker
	// count, and the per-(size, set) seed does not depend on scheduling. A
	// cancelled run (or a worker panic) comes first and publishes nothing,
	// then the first error in job order.
	results := make([]*PlaneSet, len(jobs))
	errs := make([]error, len(jobs))
	if err := parallel.ForCtx(ctx, workers, len(jobs), func(n int) {
		jb := jobs[n]
		sk, err := NewSketcher(p, k, 1<<jb.i, 1<<jb.j,
			poolSketcherSeed(seed, jb.i, jb.j, jb.s), opts.Estimator)
		if err != nil {
			errs[n] = err
			return
		}
		ps := &PlaneSet{sk: sk, rows: pl.rows - 1<<jb.i + 1, cols: pl.cols - 1<<jb.j + 1}
		ps.bands, errs[n] = bandLanes(LaneID{jb.i, jb.j, jb.s}, ps.rows, ps.cols, k, sealedTo, sealed)
		results[n] = ps
	}); err != nil {
		return nil, err
	}
	for n, jb := range jobs {
		if errs[n] != nil {
			return nil, errs[n]
		}
		sets := pl.entries[[2]int{jb.i, jb.j}]
		sets[jb.s] = results[n]
		pl.entries[[2]int{jb.i, jb.j}] = sets
	}

	// Correlate panel by panel through slab plans. The same buildPanels
	// pass serves Append, which is what makes incremental and from-scratch
	// builds byte-identical.
	if err := pl.buildPanels(ctx, t, workers, 0, sealedTo); err != nil {
		return nil, err
	}
	return pl, nil
}

// P returns the Lp exponent of the pool's sketches.
func (pl *Pool) P() float64 { return pl.p }

// K returns the sketch size.
func (pl *Pool) K() int { return pl.k }

// NumSizes returns how many dyadic sizes the pool holds.
func (pl *Pool) NumSizes() int { return len(pl.entries) }

// Seed returns the seed every per-(size, set) sketcher seed derives
// from. Sketcher randomness depends only on (seed, dyadic size, set,
// lane) — never on column position — so pools with equal (p, k, seed,
// estimator) over different column slices of one logical table produce
// mutually comparable sketches; /v1/shardinfo exposes this for the
// coordinator's merge-compatibility check.
func (pl *Pool) Seed() uint64 { return pl.seed }

// TableDims returns the dimensions of the table the pool was built over,
// so holders of the pool can validate query rectangles without the
// original table.
func (pl *Pool) TableDims() (rows, cols int) { return pl.rows, pl.cols }

// BaseCol returns the absolute stream column the pool's table column 0
// corresponds to (PoolOptions.BaseCol, carried unchanged through Append;
// a sliding-window trim advances it, see Reband).
func (pl *Pool) BaseCol() int { return pl.baseCol }

// HighWaterCols returns the exclusive absolute stream column up to which
// the pool has ingested data: BaseCol() plus the pool's table width.
// Resume-after-crash compares this against the store's total columns and
// replays only the missing suffix, never recomputing from column 0.
func (pl *Pool) HighWaterCols() int { return pl.baseCol + pl.cols }

// refSketcher returns a deterministic representative sketcher: the
// distance estimator depends only on (p, k, scale, estimator), never on
// the tile size or random matrices, so any one of the pool's sketchers
// can compare sketches of any rectangle size.
func (pl *Pool) refSketcher() *Sketcher {
	return pl.entries[[2]int{pl.opts.MinLogRows, pl.opts.MinLogCols}][0].Sketcher()
}

// Estimator returns the resolved distance estimator the pool's sketchers
// apply (EstimatorL2 for p = 2 under EstimatorAuto, EstimatorMedian
// otherwise) — the progressive pruning layer needs it to pick the
// matching confidence-margin family.
func (pl *Pool) Estimator() Estimator { return pl.refSketcher().EstimatorKind() }

// Scale returns B(p), the median-|stable| unbiasing constant of the
// pool's estimator (see Sketcher.Scale).
func (pl *Pool) Scale() float64 { return pl.refSketcher().Scale() }

// SketchDist returns a distance function over pool sketches (as returned
// by Sketch for equal-size rectangles): O(k) per call, safe for
// concurrent use, allocation-free on the hot path. It is the DistFunc to
// hand to clustering when the points are pool sketches.
func (pl *Pool) SketchDist() func(a, b []float64) float64 {
	return pl.refSketcher().ConcurrentDist()
}

// NearestSketch is the argmin of SketchDist()(q, ·) over candidate pool
// sketches stored back to back in cands (len(cands)/K() of them), skipping
// index skip (−1 skips nothing): the lowest index of the smallest estimate
// and that estimate, bit-identical to comparing every candidate. best is
// −1 when no candidate's estimate is below +Inf. ctx is polled between
// candidates. full reports how many of the candidates needed their
// estimate computed in full; the rest were ruled out against the running
// best by counting lanes. Safe for concurrent use.
func (pl *Pool) NearestSketch(ctx context.Context, q, cands []float64, skip int) (best int, dist float64, full int, err error) {
	sp := getScratch(pl.k)
	defer putScratch(sp)
	return pl.refSketcher().nearest(ctx, q, cands, skip, *sp)
}

// poolSketcherSeed derives the deterministic per-(size, set) seed; saved
// pools rely on this derivation staying stable across versions.
func poolSketcherSeed(seed uint64, i, j, s int) uint64 {
	return seed ^ uint64(i)<<40 ^ uint64(j)<<20 ^ uint64(s)<<4 ^ 0x9e3779b97f4a7c15
}

// dyadicFor returns the exponent e such that tile extent 2^e tiles a
// rectangle extent of n (2^e ≤ n ≤ 2^(e+1)) within [minLog, maxLog],
// or an error when no configured size can tile n.
func dyadicFor(n, minLog, maxLog int) (int, error) {
	if n < 1<<minLog {
		return 0, fmt.Errorf("core: extent %d below smallest pooled dyadic size %d", n, 1<<minLog)
	}
	e := log2Floor(n)
	if e > maxLog {
		e = maxLog
	}
	if n > 2<<e {
		return 0, fmt.Errorf("core: extent %d exceeds twice the largest pooled dyadic size %d", n, 1<<maxLog)
	}
	return e, nil
}

// CanSketch reports whether the pool covers rectangles with the given
// extents (and, for the error path, why not).
func (pl *Pool) CanSketch(rect table.Rect) error {
	if !rect.In(pl.rows, pl.cols) {
		return fmt.Errorf("core: rect %v outside table %dx%d", rect, pl.rows, pl.cols)
	}
	if _, err := dyadicFor(rect.Rows, pl.opts.MinLogRows, pl.opts.MaxLogRows); err != nil {
		return err
	}
	if _, err := dyadicFor(rect.Cols, pl.opts.MinLogCols, pl.opts.MaxLogCols); err != nil {
		return err
	}
	return nil
}

// corners is where a rectangle's pool sketch lives: the lanes of the
// one position of an exactly dyadic rectangle (the other three are then nil), or of
// Definition 4's four overlapping dyadic rectangles anchored at the
// four corners, one per independent set. The views are read-only.
type corners [compoundSets][]fft.Lane

// corners resolves rect: the size lookup, the bounds checks and the
// band walks (corners may sit in different bands) of a sketch, with no
// lane read yet.
func (pl *Pool) corners(rect table.Rect) (corners, error) {
	if err := pl.CanSketch(rect); err != nil {
		return corners{}, err
	}
	ei, _ := dyadicFor(rect.Rows, pl.opts.MinLogRows, pl.opts.MaxLogRows)
	ej, _ := dyadicFor(rect.Cols, pl.opts.MinLogCols, pl.opts.MaxLogCols)
	sets := pl.entries[[2]int{ei, ej}]
	a, b := 1<<ei, 1<<ej
	if rect.Rows == a && rect.Cols == b {
		// Exact dyadic rectangle: one sketch, full Theorem 1/2 guarantee.
		return corners{sets[0].lanes(rect.R0, rect.C0)}, nil
	}
	r2 := rect.R0 + rect.Rows - a
	c2 := rect.C0 + rect.Cols - b
	return corners{
		sets[0].lanes(rect.R0, rect.C0),
		sets[1].lanes(r2, rect.C0),
		sets[2].lanes(rect.R0, c2),
		sets[3].lanes(r2, c2),
	}, nil
}

// gather writes the sketch at cn into dst (len k), widening each lane
// exactly to float32 (a 16-bit shift) and to float64 once a lane. A
// compound sketch is summed lane by lane in set order, in float32: the
// three additions round far below the lanes' own 2⁻⁸, and widening each
// corner to float64 before the add would pay four conversions a lane
// where this pays one (and run at half the speed: the conversion is the
// slowest instruction in the loop). The corners are read in one pass over four
// independent load streams: a position is k·LaneBytes somewhere in a pool
// hundreds of MiB wide, so its lines miss, and walking the corners one
// after the other waits for each miss in turn where this loop has all
// four outstanding.
//
// The Go body below is the reference and the only path off amd64; the
// AVX2 encoding (gather_amd64.s, eight lanes a register) is chosen once
// at start-up from the CPU probe and makes the same operations in the
// same order, so the sketch is the same bits (TestAVX2GatherMatchesGo).
func gather(dst []float64, cn *corners) {
	if cpu.AVX2 {
		gatherAVX2(dst, cn)
		return
	}
	gatherGo(dst, cn)
}

// gatherGo is the Go body of gather.
func gatherGo(dst []float64, cn *corners) {
	x0 := cn[0][:len(dst)]
	if cn[1] == nil {
		for i, v := range x0 {
			dst[i] = float64(v.Float32())
		}
		return
	}
	x1, x2, x3 := cn[1][:len(dst)], cn[2][:len(dst)], cn[3][:len(dst)]
	for i := range dst {
		dst[i] = float64(x0[i].Float32() + x1[i].Float32() + x2[i].Float32() + x3[i].Float32())
	}
}

// Sketch returns the pool sketch of rect in O(k) time: the exact dyadic
// sketch when rect is exactly a pooled dyadic size, otherwise the
// compound sketch of Definition 4 (sum of four overlapping dyadic
// sketches from the four independent sets).
//
// Sketches returned for equal-size rectangles are mutually comparable
// with Distance; comparing sketches of different-size rectangles is
// meaningless (as is their exact Lp distance).
func (pl *Pool) Sketch(rect table.Rect, dst []float64) ([]float64, error) {
	cn, err := pl.corners(rect)
	if err != nil {
		return nil, err
	}
	if cap(dst) < pl.k {
		dst = make([]float64, pl.k)
	}
	dst = dst[:pl.k]
	gather(dst, &cn)
	return dst, nil
}

// IsExact reports whether rect hits a pooled dyadic size exactly, i.e.
// whether Sketch returns a plain (non-compound) sketch with the full
// (1 ± ε) guarantee.
func (pl *Pool) IsExact(rect table.Rect) bool {
	if pl.CanSketch(rect) != nil {
		return false
	}
	ei, _ := dyadicFor(rect.Rows, pl.opts.MinLogRows, pl.opts.MaxLogRows)
	ej, _ := dyadicFor(rect.Cols, pl.opts.MinLogCols, pl.opts.MaxLogCols)
	return rect.Rows == 1<<ei && rect.Cols == 1<<ej
}

// Distance estimates the Lp distance between two equal-size rectangles
// from their pool sketches. For exact dyadic rectangles this is a
// (1 ± ε)-estimate (Theorems 1–2); otherwise it carries the compound
// overcount of Theorem 5 (between 1× and ~4× the true distance), which
// preserves relative comparisons between same-size rectangles. The
// sketches are gathered into pooled scratch (see DistanceBatch, which
// runs the same gather and estimate per item): no allocation once warm.
func (pl *Pool) Distance(a, b table.Rect) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("core: distance between different-size rects %v and %v", a, b)
	}
	ca, err := pl.corners(a)
	if err != nil {
		return 0, err
	}
	cb, err := pl.corners(b)
	if err != nil {
		return 0, err
	}
	return pl.refSketcher().estimate.distance(&ca, &cb), nil
}

// MemoryBytes reports the approximate heap footprint of the pool's
// precomputed payloads (plane-set data plus the regenerable random
// matrices), the quantity to budget when choosing PoolOptions for big
// tables. Sealed bands viewing externally owned memory (segment
// mappings) are excluded — see MappedBytes.
func (pl *Pool) MemoryBytes() int64 {
	var total int64
	for _, sets := range pl.entries {
		for _, ps := range sets {
			for bi := range ps.bands {
				if !ps.bands[bi].ext {
					total += int64(len(ps.bands[bi].data)) * LaneBytes
				}
			}
			sk := ps.sk
			total += int64(sk.k) * int64(sk.rows) * int64(sk.cols) * 8
		}
	}
	return total
}

// MappedBytes reports how many plane-set bytes view externally owned
// memory (typically read-only segment-file mappings) rather than the Go
// heap. Zero for a pool nothing has sealed.
func (pl *Pool) MappedBytes() int64 {
	var total int64
	for _, sets := range pl.entries {
		for _, ps := range sets {
			for bi := range ps.bands {
				if ps.bands[bi].ext {
					total += int64(len(ps.bands[bi].data)) * LaneBytes
				}
			}
		}
	}
	return total
}
