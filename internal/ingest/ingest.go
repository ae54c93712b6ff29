// Package ingest is the streaming half of the pipeline: it turns a
// day-partitioned tabstore into a continuously maintained sketch pool
// and a stream of published server snapshots.
//
// The tabstore is the write-ahead log. A pushed record (POST /v1/ingest
// or tabmine-ingest) lands durably as a store day before the push is
// acknowledged; the in-memory window table, the dyadic sketch pool, and
// the served snapshot catch up asynchronously. A restart therefore
// never loses acknowledged data: Resume maps the sealed prefix of the
// pool from its segment files (internal/segstore) and re-sketches only
// the store columns past it.
//
// Pool maintenance is incremental. Pools run in panel mode
// (core.PoolOptions.PanelCols), where appending day columns recomputes
// only the panels whose overlap-save slab reaches the new columns —
// byte-identical to a from-scratch build over the final table, at a
// small fraction of the FFT work (core's append tests assert both
// properties). After every append the newly sealable columns are sealed
// into an immutable segment file. When the sliding window overflows,
// the oldest whole segments are deleted with hysteresis (down to about
// half the window, not one day per append) and only the fringe is
// rebuilt over the shorter window.
//
// Backpressure is explicit: days appended to the store but not yet
// sketched form the pending backlog, and once it reaches QueueLen new
// pushes are rejected with server.ErrIngestBacklog — mapped by the
// server to 503 + Retry-After — before anything touches disk.
package ingest

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
)

// Options tunes an Ingester. PoolP, PoolK, and the Pool bounds are
// required; the zero value of everything else gets defaults from New.
type Options struct {
	// PoolP, PoolK, PoolSeed are the sketch-pool parameters (the p of
	// the Lp norm, sketch width, seed) passed to core.NewPool.
	PoolP    float64
	PoolK    int
	PoolSeed uint64
	// Pool carries the dyadic extent bounds, worker bound, estimator,
	// and panel width. PanelCols must be a power of two (segment
	// boundaries are cut at multiples of it); 0 defaults to 32. BaseCol
	// is managed by the ingester and must be left zero.
	Pool core.PoolOptions
	// WindowDays bounds the sliding window over the time axis, in whole
	// store days. When the window exceeds it, the oldest segments are
	// deleted down to about half the bound (hysteresis, so trims are
	// rare) and the pool fringe is rebuilt over the shorter window. 0
	// keeps every day forever.
	WindowDays int
	// QueueLen bounds the pending backlog: days durably appended but
	// not yet incorporated into the pool. At the bound, pushes shed
	// with server.ErrIngestBacklog (default 8).
	QueueLen int
	// SegmentDir is where the sealed prefix of the pool persists as
	// immutable memory-mapped segment files (internal/segstore). Restart
	// maps the segments and rebuilds only the unsealed fringe — no day
	// replay — and window trimming is whole-segment deletion. Empty means
	// the store's own segments subdirectory (tabstore.Store.SegmentsDir).
	SegmentDir string
	// Poll, when positive, re-reads the store manifest this often so
	// days appended by another process are picked up (tail mode).
	Poll time.Duration
	// Compress gzip-compresses day files written for pushed records.
	Compress bool
	// Snapshot configures the published serving state. TileRows == 0
	// disables snapshot publishing (the pool is still maintained).
	Snapshot server.SnapshotConfig
	// Publisher receives each freshly built snapshot (usually the
	// query server). Nil disables publishing.
	Publisher server.Publisher
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

const defaultPanelCols = 32

// Ingester maintains the window table, sketch pool, and published
// snapshot over a tabstore that grows by days.
type Ingester struct {
	opts  Options
	store *tabstore.Store
	wake  chan struct{}

	// mu serializes store access and guards cursor; everything below
	// it is owned by the Resume/Run goroutine.
	mu     sync.Mutex
	cursor int // store days already incorporated into the pool

	winStart int          // first store day (fully or partly) inside the window
	base     int          // absolute column of the window start (== pool.BaseCol())
	tb       *table.Table // the window's columns, stitched
	pool     *core.Pool

	// The segment store and the working view the current pool's sealed
	// bands are mapped through. The working view is swapped after every
	// maintenance round; published snapshots hold their own clones, so
	// compaction reclaims files only after the last snapshot referencing
	// them retires. Note that base is aligned to segments, not days, so
	// winStart's day may be only partly inside the window.
	segs *segstore.Store
	view *segstore.View
}

// New builds an Ingester over an opened store. Call Resume to restore
// persisted state and replay the backlog, then Run to process pushes.
func New(store *tabstore.Store, opts Options) (*Ingester, error) {
	if store == nil {
		return nil, fmt.Errorf("ingest: nil store")
	}
	if opts.PoolP <= 0 || opts.PoolK <= 0 {
		return nil, fmt.Errorf("ingest: PoolP and PoolK are required")
	}
	if opts.Pool.BaseCol != 0 || opts.Pool.Context != nil {
		return nil, fmt.Errorf("ingest: Pool.BaseCol and Pool.Context are managed by the ingester")
	}
	if opts.Pool.PanelCols == 0 {
		opts.Pool.PanelCols = defaultPanelCols
	}
	if opts.Pool.PanelCols < 0 || opts.Pool.PanelCols&(opts.Pool.PanelCols-1) != 0 {
		return nil, fmt.Errorf("ingest: PanelCols must be a power of two, got %d", opts.Pool.PanelCols)
	}
	if opts.SegmentDir == "" {
		opts.SegmentDir = store.SegmentsDir()
	}
	if opts.WindowDays < 0 || opts.QueueLen < 0 {
		return nil, fmt.Errorf("ingest: negative WindowDays or QueueLen")
	}
	if opts.QueueLen == 0 {
		opts.QueueLen = 8
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Ingester{opts: opts, store: store, wake: make(chan struct{}, 1)}, nil
}

// Pool returns the current pool (nil before the first build). Owned by
// the Resume/Run goroutine; other goroutines should query through the
// published snapshots instead.
func (ing *Ingester) Pool() *core.Pool { return ing.pool }

// Close releases the working view's pins and the segment store's own
// mappings. Published snapshots hold their own view clones, so closing
// the ingester never unmaps a snapshot that is still serving. The pool
// must not be queried after Close (its sealed bands may be backed by the
// released mappings). Owned, like the pool, by the Resume/Run goroutine.
func (ing *Ingester) Close() {
	if ing.view != nil {
		ing.view.Release()
		ing.view = nil
	}
	if ing.segs != nil {
		ing.segs.Close()
		ing.segs = nil
	}
	ing.pool = nil
}

// Pending reports how many store days await incorporation.
func (ing *Ingester) Pending() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.store.NumDays() - ing.cursor
}

// IngestRecord implements server.Ingestor: parse one pushed record,
// shed if the backlog is full, otherwise append it durably to the
// store and wake the maintenance loop. The acknowledgement means "in
// the write-ahead log", not "being served" — Pending in the result
// says how far behind the serving state is.
func (ing *Ingester) IngestRecord(ctx context.Context, body io.Reader) (*server.IngestResult, error) {
	label, t, err := ReadRecord(body)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ing.mu.Lock()
	pending := ing.store.NumDays() - ing.cursor
	if pending >= ing.opts.QueueLen {
		ing.mu.Unlock()
		return nil, fmt.Errorf("ingest: %d days pending: %w", pending, server.ErrIngestBacklog)
	}
	if err := ing.store.AppendDay(label, t, ing.opts.Compress); err != nil {
		ing.mu.Unlock()
		return nil, err
	}
	res := &server.IngestResult{
		Label: label, Cols: t.Cols(),
		ColsTotal: ing.store.ColsTotal(), Pending: pending + 1,
	}
	ing.mu.Unlock()
	ing.signal()
	return res, nil
}

func (ing *Ingester) signal() {
	select {
	case ing.wake <- struct{}{}:
	default: // a wakeup is already queued; the loop drains everything
	}
}

// Resume maps the segment store into a pool, re-sketches every store
// column past its sealed prefix, and publishes the caught-up snapshot.
// The store is the authority for the data; the segment store's hard
// errors (parameters that differ from the configured ones, a corrupt
// segment) are returned, not repaired — see segstore.Open.
func (ing *Ingester) Resume(ctx context.Context) error {
	if err := ing.resumeSegments(ctx); err != nil {
		return err
	}
	if err := ing.drain(ctx); err != nil {
		return err
	}
	// Publish even when nothing needed replay: a restart over a fully
	// sealed store must still hand the server its first snapshot.
	if err := ing.publish(ctx); err != nil {
		ing.opts.Logf("ingest: snapshot not published: %v", err)
	}
	return nil
}

// publish builds a serving snapshot over the current window and hands
// it to the Publisher. No-op without a Publisher, a snapshot geometry,
// or a pool. The snapshot holds its own clone of the working segment
// view (every pool has one: maintainSegments sets both), released when
// the snapshot's last reference drops — that clone is what defers file
// reclamation until no query can still read the mapping. The ingester's own snapshot reference is
// released after publishing: a Publisher that keeps the snapshot (the
// server does, via Swap's retain) must hold its own reference.
func (ing *Ingester) publish(ctx context.Context) error {
	if ing.opts.Publisher == nil || ing.opts.Snapshot.TileRows <= 0 || ing.pool == nil {
		return nil
	}
	sn, err := server.BuildSnapshot(ctx, ing.tb, ing.pool, ing.opts.Snapshot)
	if err != nil {
		return err
	}
	sn.OnRelease(ing.view.Clone().Release)
	ing.opts.Publisher.Publish(sn)
	sn.Release()
	return nil
}

// segParams derives the segment-store parameter block binding segment
// files to this ingester's pool geometry. Valid only once the store has
// at least one day (Rows is 0 before that).
func (ing *Ingester) segParams() segstore.Params {
	po := ing.opts.Pool
	return segstore.Params{
		P: ing.opts.PoolP, K: ing.opts.PoolK, Rows: ing.store.Rows(), Seed: ing.opts.PoolSeed,
		MinLogRows: po.MinLogRows, MaxLogRows: po.MaxLogRows,
		MinLogCols: po.MinLogCols, MaxLogCols: po.MaxLogCols,
		Estimator: po.Estimator, PanelCols: po.PanelCols,
	}
}

// ensureSegs lazily opens the segment store; it needs the table row
// count, which is unknown until the tabstore holds a day.
func (ing *Ingester) ensureSegs() error {
	if ing.segs != nil {
		return nil
	}
	st, err := segstore.Open(ing.opts.SegmentDir, ing.segParams())
	if err != nil {
		return err
	}
	ing.segs = st
	return nil
}

// resumeSegments is the restart path: map the live segment set and
// build one pool over the window table whose sealed prefix is
// the mapping — no day-by-day replay, one fringe FFT pass regardless of
// how many days the segments cover. The restart-replay-days expvar gets
// the number of store days lying entirely past the sealed prefix (0
// once a store has sealed past its fringe; the mmap-demo drill asserts
// exactly that).
func (ing *Ingester) resumeSegments(ctx context.Context) error {
	total := ing.store.NumDays()
	if total == 0 {
		segstore.SetRestartReplayDays(0)
		return nil // first boot of an empty store; drain builds from scratch
	}
	if err := ing.ensureSegs(); err != nil {
		return err
	}
	base, sealed := ing.segs.BaseCol(), ing.segs.SealedCol()
	day, dayStart, err := ing.dayContaining(base)
	if err != nil {
		return err
	}
	tb, err := ing.store.LoadRange(day, total)
	if err != nil {
		return err
	}
	if base > dayStart {
		// The window base falls mid-day (segment alignment, not day
		// alignment): drop the leading columns of the partial day.
		tb = tb.Sub(table.Rect{R0: 0, C0: base - dayStart, Rows: tb.Rows(), Cols: tb.Cols() - (base - dayStart)})
	}
	// A day counts as replayed only when the sealed prefix should have
	// covered it but does not: days at or past the window's sealable
	// limit are fringe by construction — even a graceful restart
	// re-sketches them — so they are not replay debt. After a drained
	// maintenance round sealed == the limit and the count is 0.
	align := max(ing.opts.Pool.PanelCols, 1<<ing.opts.Pool.MaxLogCols)
	sealable := base + core.FloorAlign(tb.Cols()-1<<ing.opts.Pool.MaxLogCols+1, align)
	replay := 0
	for i, off := day, dayStart; i < total; i++ {
		if off >= sealed && off < sealable {
			replay++
		}
		w, err := ing.store.DayCols(i)
		if err != nil {
			return err
		}
		off += w
	}
	v := ing.segs.Acquire()
	pool, err := ing.newPool(ctx, tb, base, v.Bands(base))
	if err != nil {
		v.Release()
		return fmt.Errorf("ingest: mapping segment store into a pool: %w", err)
	}
	ing.view = v
	// Run one maintenance round so the replayed fringe seals immediately:
	// a crash right after resume then replays nothing on the next boot.
	tb, pool, day, base, err = ing.maintainSegments(ctx, tb, pool, day, base, total)
	if err != nil {
		return err
	}
	ing.mu.Lock()
	ing.cursor = total
	ing.mu.Unlock()
	ing.winStart, ing.base = day, base
	ing.tb, ing.pool = tb, pool
	segstore.SetRestartReplayDays(replay)
	ing.opts.Logf("ingest: resumed from %d mapped segments (columns [%d,%d) sealed, %d of %d days replayed)",
		v.NumSegments(), base, sealed, replay, total)
	return nil
}

// maintainSegments is the maintenance round run after every pool build
// or append: seal the pool's newly sealable columns as an L0
// segment, trim the window by whole segments if it overflowed, run at
// most one compaction merge, and reband the pool onto a fresh view of
// the live set so its sealed prefix reads from the mappings. Returns the
// (possibly trimmed) window table and the rebanded pool with the updated
// window coordinates; ing.view is swapped to the fresh view.
func (ing *Ingester) maintainSegments(ctx context.Context, tb *table.Table, pool *core.Pool, winStart, base, target int) (*table.Table, *core.Pool, int, int, error) {
	fail := func(err error) (*table.Table, *core.Pool, int, int, error) { return nil, nil, 0, 0, err }
	if err := ing.ensureSegs(); err != nil {
		return fail(err)
	}
	sealed := ing.segs.SealedCol()
	if sealed < base {
		return fail(fmt.Errorf("ingest: segment store sealed to column %d, before window base %d", sealed, base))
	}
	if sealTo := base + pool.SealableCols(); sealTo > sealed {
		if err := ing.segs.WriteL0(pool, sealed, sealTo); err != nil {
			return fail(err)
		}
	}

	// Window trim is whole-segment deletion: drop every segment lying
	// entirely before the day the window should retreat to, clamped so
	// the window keeps at least one maximal tile. The trimmed pool is
	// rebuilt below — sealed bytes are adopted from the mappings, so only
	// the fringe costs FFT work.
	if ing.opts.WindowDays > 0 && target-winStart > ing.opts.WindowDays {
		keep := (ing.opts.WindowDays + 1) / 2
		newStart := target - keep
		ing.mu.Lock()
		keepFrom := 0
		var derr error
		for i := 0; i < newStart && derr == nil; i++ {
			var w int
			w, derr = ing.store.DayCols(i)
			keepFrom += w
		}
		ing.mu.Unlock()
		if derr != nil {
			return fail(derr)
		}
		if lim := base + tb.Cols() - 1<<ing.opts.Pool.MaxLogCols; keepFrom > lim {
			keepFrom = lim
		}
		newBase, err := ing.segs.Trim(keepFrom)
		if err != nil {
			return fail(err)
		}
		if drop := newBase - base; drop > 0 {
			rows := tb.Rows()
			trimmed := table.New(rows, tb.Cols()-drop)
			for r := 0; r < rows; r++ {
				copy(trimmed.Row(r), tb.Row(r)[drop:])
			}
			day, _, err := ing.dayContaining(newBase)
			if err != nil {
				return fail(err)
			}
			ing.opts.Logf("ingest: window trimmed to columns [%d, %d) (%d cols of segments dropped)",
				newBase, newBase+trimmed.Cols(), drop)
			tb, winStart, base = trimmed, day, newBase
			pool = nil // rebuilt over the trimmed window below
		}
	}

	if did, err := ing.segs.Compact(segstore.DefaultCompactFanout); err != nil {
		// A failed merge leaves the live set unchanged; sealing and
		// serving continue, so log and move on.
		ing.opts.Logf("ingest: compaction failed: %v", err)
	} else if did {
		ing.opts.Logf("ingest: compacted segments (%d live files)", len(ing.segs.SegmentFiles()))
	}

	v := ing.segs.Acquire()
	var err error
	if pool == nil {
		pool, err = ing.newPool(ctx, tb, base, v.Bands(base))
	} else {
		pool, err = pool.Reband(v.Bands(base))
	}
	if err != nil {
		v.Release()
		return fail(err)
	}
	if ing.view != nil {
		ing.view.Release()
	}
	ing.view = v
	return tb, pool, winStart, base, nil
}

// dayContaining maps an absolute column to the store day containing it
// and that day's first absolute column.
func (ing *Ingester) dayContaining(col int) (day, dayStart int, err error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	off := 0
	for i := 0; i < ing.store.NumDays(); i++ {
		w, err := ing.store.DayCols(i)
		if err != nil {
			return 0, 0, err
		}
		if col < off+w {
			return i, off, nil
		}
		off += w
	}
	return 0, 0, fmt.Errorf("ingest: no store day contains column %d", col)
}

// Run processes pushed days until ctx is cancelled: drain the backlog,
// then sleep until a push wakes us (or the poll ticker refreshes the
// manifest in tail mode). Errors inside a drain are logged and retried
// on the next wakeup — the store already holds the data, so nothing is
// lost by waiting.
func (ing *Ingester) Run(ctx context.Context) error {
	var tickC <-chan time.Time
	if ing.opts.Poll > 0 {
		tick := time.NewTicker(ing.opts.Poll)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		if err := ing.drain(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			ing.opts.Logf("ingest: %v (will retry on next wakeup)", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ing.wake:
		case <-tickC:
			ing.mu.Lock()
			err := ing.store.Refresh()
			ing.mu.Unlock()
			if err != nil {
				ing.opts.Logf("ingest: %v", err)
			}
		}
	}
}

// drain incorporates every pending day, one step per batch.
func (ing *Ingester) drain(ctx context.Context) error {
	for {
		did, err := ing.step(ctx)
		if err != nil || !did {
			return err
		}
	}
}

// step incorporates the days appended since the cursor: extend the
// window table, append to (or first-build) the pool, seal / trim /
// compact its segments, publish a snapshot, and only then advance the
// cursor. The expensive pool work runs outside the lock so
// pushes keep landing in the store during a rebuild.
func (ing *Ingester) step(ctx context.Context) (bool, error) {
	ing.mu.Lock()
	target := ing.store.NumDays()
	if ing.cursor >= target {
		ing.mu.Unlock()
		return false, nil
	}
	rows := ing.store.Rows()
	oldCols := 0
	if ing.tb != nil {
		oldCols = ing.tb.Cols()
	}
	added := 0
	for i := ing.cursor; i < target; i++ {
		w, err := ing.store.DayCols(i)
		if err != nil {
			ing.mu.Unlock()
			return false, err
		}
		added += w
	}
	// Stitch old window + new days into the extended window table. The
	// old columns are copied bit-for-bit, which is exactly what
	// Pool.Append requires of its argument.
	next := table.New(rows, oldCols+added)
	if ing.tb != nil {
		for r := 0; r < rows; r++ {
			copy(next.Row(r)[:oldCols], ing.tb.Row(r))
		}
	}
	off := oldCols
	err := ing.store.IterDays(ing.cursor, target, func(i int, label string, t *table.Table) error {
		for r := 0; r < rows; r++ {
			copy(next.Row(r)[off:off+t.Cols()], t.Row(r))
		}
		off += t.Cols()
		return nil
	})
	ing.mu.Unlock()
	if err != nil {
		return false, err
	}

	winStart, base := ing.winStart, ing.base
	var pool *core.Pool
	if ing.pool == nil {
		pool, err = ing.newPool(ctx, next, base, nil)
	} else {
		pool, err = ing.pool.Append(ctx, next)
	}
	if err != nil {
		return false, err
	}

	next, pool, winStart, base, err = ing.maintainSegments(ctx, next, pool, winStart, base, target)
	if err != nil {
		return false, err
	}
	ing.winStart, ing.base = winStart, base
	ing.tb, ing.pool = next, pool
	if err := ing.publish(ctx); err != nil {
		// The pool is fine; only the serving geometry failed (e.g. the
		// window is not yet tileable). Keep ingesting.
		ing.opts.Logf("ingest: snapshot not published: %v", err)
	}
	ing.mu.Lock()
	ing.cursor = target
	ing.mu.Unlock()
	ing.opts.Logf("ingest: pool at column %d (window days [%d, %d))",
		pool.HighWaterCols(), winStart, target)
	return true, nil
}

// newPool builds the pool over window table t whose column 0 is absolute
// column base, adopting the sealed bands (nil: nothing sealed yet) and
// computing the rest.
func (ing *Ingester) newPool(ctx context.Context, t *table.Table, base int, sealed []core.SealedBand) (*core.Pool, error) {
	opts := ing.opts.Pool
	opts.BaseCol = base
	opts.Context = ctx
	return core.NewBandedPool(t, ing.opts.PoolP, ing.opts.PoolK, ing.opts.PoolSeed, opts, sealed)
}

// Wake prompts the maintenance loop to re-read the manifest and drain
// whatever it finds — the manual override tabmine-serve wires to
// SIGHUP, for stores grown by another process between polls (or with
// polling disabled).
func (ing *Ingester) Wake() {
	ing.mu.Lock()
	err := ing.store.Refresh()
	ing.mu.Unlock()
	if err != nil {
		ing.opts.Logf("ingest: %v", err)
	}
	ing.signal()
}
