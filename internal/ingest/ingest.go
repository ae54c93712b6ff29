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
// the store columns past it. Boot costs O(WindowDays), not O(history):
// when the window's first day lies past every sealed column — the first
// boot over a pre-filled store — Resume sketches the window alone, plus
// the one segment alignment of left context its first panel needs.
//
// A push is the only way a day reaches a served store: the ingester's
// handle is the store's one writer, and a day another process appends
// makes the next push fail (tabstore.Store.AppendDay) until a restart
// adopts it.
//
// Pool maintenance is incremental. Pools run in panel mode
// (core.PoolOptions.PanelCols), where a tile belongs to the panel — and
// the segment — that holds its last column: appending day columns
// computes only the panels the new columns fall in — byte-identical to a
// from-scratch build over the final table, at a small fraction of the
// FFT work (core's append tests assert both properties) — and a day that
// ends on a segment boundary is sealed whole into an immutable segment
// file the moment it is sketched. When the sliding window overflows, the
// oldest whole segments are deleted with hysteresis (down to about half
// the window, not one day per append) and the pool is re-based onto the
// shorter window: bands dropped, base shifted, nothing recomputed.
//
// The invariant restart and replicas rely on: every lane byte of the
// ingester's pool equals the byte at the same absolute position of
// core.NewPool over the whole stream from column 0 with the same
// parameters — through any sequence of appends, seals, compactions,
// trims and restarts.
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
	// Pool carries the dyadic extent bounds, worker bound and panel
	// width. PanelCols must be a power of two (segment boundaries are cut
	// at multiples of it); 0 defaults to 32. BaseCol is managed by the
	// ingester and must be left zero.
	Pool core.PoolOptions
	// WindowDays bounds the sliding window over the time axis, in whole
	// store days. When the window exceeds it, the oldest segments are
	// deleted down to about half the bound (hysteresis, so trims are
	// rare) and the pool is re-based onto the shorter window. 0 keeps
	// every day forever.
	//
	// Resume builds the last WindowDays stored days when they begin past
	// the sealed prefix (a first boot over a pre-filled store, or days
	// appended offline past every segment): it drops the segments, moves
	// the segment store's base to the window's first column (cut at a
	// segment boundary, and clamped to keep one maximal tile, as a trim
	// is) and sketches from one segment alignment before it, so every
	// lane still equals the whole stream's. Any other boot maps the
	// segments and sketches the columns past them.
	WindowDays int
	// QueueLen bounds the pending backlog: days durably appended but
	// not yet incorporated into the pool. At the bound, pushes shed
	// with server.ErrIngestBacklog (default 8).
	QueueLen int
	// SegmentDir is where the sealed prefix of the pool persists as
	// immutable memory-mapped segment files (internal/segstore). Restart
	// maps the segments and sketches only the unsealed tail — no day
	// replay — and window trimming is whole-segment deletion. Empty means
	// the store's own segments subdirectory (tabstore.Store.SegmentsDir).
	SegmentDir string
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
	tb       *table.Table // the window's columns, stitched, from pool.BaseCol()
	pool     *core.Pool

	// The segment store and the working view the current pool's sealed
	// bands are mapped through. The working view is swapped after every
	// maintenance round; published snapshots hold their own clones, so
	// compaction reclaims files only after the last snapshot referencing
	// them retires. Note that the window base is aligned to segments, not
	// days, so winStart's day may be only partly inside the window.
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
	if err := ing.store.AppendDay(label, t, false); err != nil {
		ing.mu.Unlock()
		return nil, err
	}
	res := &server.IngestResult{
		Label: label, Cols: t.Cols(),
		ColsTotal: ing.store.ColsTotal(), Pending: pending + 1,
	}
	ing.mu.Unlock()
	select {
	case ing.wake <- struct{}{}:
	default: // a wakeup is already queued; the loop drains everything
	}
	return res, nil
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
		PanelCols: po.PanelCols,
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
// build one pool over the window table whose sealed prefix is the
// mapping — no day-by-day replay, one FFT pass over the panels past the
// sealed boundary regardless of how many days the segments cover. A
// window that begins past the sealed prefix is built alone, with one
// alignment of left context (see Options.WindowDays). The
// restart-replay-days expvar gets the number of store days of the built
// window lying entirely inside the sealable but unsealed columns: a day
// is sealed the moment it completes a segment, so on a restart it reads
// 0 unless the process died between an ack and the seal (the mmap-demo
// drill asserts exactly that); columns past the last segment boundary
// are sketched on every boot, graceful or not, and are not replay debt.
func (ing *Ingester) resumeSegments(ctx context.Context) error {
	total := ing.store.NumDays()
	if total == 0 {
		segstore.SetRestartReplayDays(0)
		return nil // first boot of an empty store; drain builds from scratch
	}
	if err := ing.ensureSegs(); err != nil {
		return err
	}
	align := ing.segParams().SegAlign()
	ing.mu.Lock()
	end := ing.store.ColsTotal()
	ing.mu.Unlock()
	base, sealed := ing.segs.BaseCol(), ing.segs.SealedCol()
	// The window is the last WindowDays stored days. When it begins past
	// every sealed column — a first boot over a pre-filled store, or days
	// appended offline past the segments — nothing before it is worth
	// sketching: drop the segments and move the empty store's base to the
	// window's first column, trimmed as a maintenance round would and cut
	// at a segment boundary, so the boot builds O(WindowDays) columns, not
	// the history.
	if w := ing.opts.WindowDays; w > 0 && total > w {
		start, err := ing.keepFrom(total-w, end)
		if err != nil {
			return err
		}
		if start = core.FloorAlign(start, align); start > sealed {
			if _, err := ing.segs.Trim(sealed); err != nil {
				return err
			}
			if err := ing.segs.Rebase(start); err != nil {
				return err
			}
			base, sealed = start, start
		}
	}
	// A window that starts inside the stream with nothing sealed (fsck
	// quarantined the leading segment, or the boot above moved the base)
	// needs the columns before it: a slab carries 2^j − 1 columns of left
	// context, which a pool over the bare window lacks, so its leading
	// tiles would differ from the stream's in their last bits. Load one alignment of that context from the store — the
	// WAL keeps every day — build over it, seal from that pool, and let the
	// maintenance round re-base onto the window: answers equal those of a
	// pool over the whole stream.
	from := base
	if sealed == base {
		from = max(base-align, 0)
	}
	ing.mu.Lock()
	day, dayStart, err := ing.store.DayAt(from)
	ing.mu.Unlock()
	if err != nil {
		return err
	}
	tb, err := ing.store.LoadRange(day, total)
	if err != nil {
		return err
	}
	if from > dayStart {
		// The window base falls mid-day (segment alignment, not day
		// alignment): drop the leading columns of the partial day.
		tb = tb.Sub(table.Rect{R0: 0, C0: from - dayStart, Rows: tb.Rows(), Cols: tb.Cols() - (from - dayStart)})
	}
	sealable := core.FloorAlign(end, align)
	replay := 0
	ing.mu.Lock()
	for i := day; i < total; i++ {
		if off, _ := ing.store.ColOffset(i); off >= sealed && off < sealable {
			replay++
		}
	}
	ing.mu.Unlock()
	v := ing.segs.Acquire()
	pool, err := ing.newPool(ctx, tb, from, v.Bands(from))
	if err != nil {
		v.Release()
		return fmt.Errorf("ingest: mapping segment store into a pool: %w", err)
	}
	ing.view = v
	// Run one maintenance round so the replayed columns seal immediately:
	// a crash right after resume then replays nothing on the next boot.
	tb, pool, winStart, err := ing.maintainSegments(ctx, tb, pool, day, total)
	if err != nil {
		return err
	}
	ing.mu.Lock()
	ing.cursor = total
	ing.mu.Unlock()
	ing.winStart = winStart
	ing.tb, ing.pool = tb, pool
	segstore.SetRestartReplayDays(replay)
	// Days before the first one loaded were not sketched by this boot:
	// trimmed in an earlier life, or before the window of this one.
	ing.opts.Logf("ingest: resumed from %d mapped segments (columns [%d,%d) sealed, %d of %d days replayed; "+
		"window from day %d, %d stored days before it unsketched)",
		v.NumSegments(), base, sealed, replay, total, winStart, day)
	return nil
}

// maintainSegments is the maintenance round run after every pool build
// or append: trim the window by whole segments if it overflowed, run at
// most one compaction merge among the segments the next trim will keep
// (segstore.Store.CompactAfter), seal the pool's newly sealable columns as
// an L0 segment, and re-express the pool over a fresh view of the live
// set — its sealed prefix reading from the mappings, its base moved past
// whatever the trim dropped. Returns the (possibly trimmed) window table
// and the pool over it with the window's first day; ing.view is swapped
// to the fresh view.
//
// The order is trim → compact → seal, so the file a round writes is
// never an input of that round's merge: with whole days sealed on
// arrival, sealing first would complete a run of DefaultCompactFanout L0
// segments one day early and let the merge swallow columns the next trim
// wants to drop, which desynchronises trims from compactions. The seal
// reads the un-trimmed pool, whose own BaseCol addresses it.
//
// Nothing here computes a sketch: a trim drops bands and shifts BaseCol
// (core.Pool.Reband). The pool may start before the segment store's
// base — resumeSegments builds it so when the leading segment is lost —
// and is re-based onto it by the same arithmetic as after a trim.
func (ing *Ingester) maintainSegments(ctx context.Context, tb *table.Table, pool *core.Pool, winStart, target int) (*table.Table, *core.Pool, int, error) {
	fail := func(err error) (*table.Table, *core.Pool, int, error) { return nil, nil, 0, err }
	if err := ing.ensureSegs(); err != nil {
		return fail(err)
	}
	base := pool.BaseCol()
	if sealed := ing.segs.SealedCol(); sealed < base {
		return fail(fmt.Errorf("ingest: segment store sealed to column %d, before window base %d", sealed, base))
	}

	// Window trim is whole-segment deletion: drop every segment lying
	// entirely before the day the window should retreat to, clamped so
	// the window keeps at least one maximal tile.
	end := pool.HighWaterCols()
	newBase := ing.segs.BaseCol()
	if ing.opts.WindowDays > 0 && target-winStart > ing.opts.WindowDays {
		keepFrom, err := ing.keepFrom(target-(ing.opts.WindowDays+1)/2, end)
		if err != nil {
			return fail(err)
		}
		if newBase, err = ing.segs.Trim(keepFrom); err != nil {
			return fail(err)
		}
	}
	drop := newBase - base
	if drop > 0 {
		tb = tb.Sub(table.Rect{R0: 0, C0: drop, Rows: tb.Rows(), Cols: tb.Cols() - drop})
		ing.mu.Lock()
		day, _, err := ing.store.DayAt(newBase)
		ing.mu.Unlock()
		if err != nil {
			return fail(err)
		}
		winStart = day
		ing.opts.Logf("ingest: window trimmed to columns [%d, %d) (%d cols of segments dropped)",
			newBase, end, drop)
	}

	// Compaction never rewrites what the next trim deletes. That trim
	// fires at the first target past winStart + WindowDays and keeps from
	// a day at least winStart + WindowDays + 1 − (WindowDays+1)/2, under
	// a clamp that only grows with the window's end: the horizon below is
	// a lower bound on its keepFrom, and every segment ending at or before
	// it is certain to go. (A day past the window counts as target, whose
	// first column is the window's end; the clamp lies below that.)
	// Without a window nothing is trimmed and every segment may be merged.
	horizon := newBase
	if w := ing.opts.WindowDays; w > 0 {
		var err error
		if horizon, err = ing.keepFrom(min(winStart+w+1-(w+1)/2, target), end); err != nil {
			return fail(err)
		}
	}
	if did, err := ing.segs.CompactAfter(segstore.DefaultCompactFanout, horizon); err != nil {
		// A failed merge leaves the live set unchanged; sealing and
		// serving continue, so log and move on.
		ing.opts.Logf("ingest: compaction failed: %v", err)
	} else if did {
		ing.opts.Logf("ingest: compacted segments (%d live files)", len(ing.segs.SegmentFiles()))
	}

	if sealed, sealTo := ing.segs.SealedCol(), base+pool.SealableCols(); sealTo > sealed {
		if err := ing.segs.WriteL0(pool, sealed, sealTo); err != nil {
			return fail(err)
		}
	}

	v := ing.segs.Acquire()
	pool, err := pool.Reband(drop, v.Bands(newBase))
	if err != nil {
		v.Release()
		return fail(err)
	}
	if ing.view != nil {
		ing.view.Release()
	}
	ing.view = v
	return tb, pool, winStart, nil
}

// keepFrom returns the column a window trim retreating to store day
// day keeps from: the day's first column, clamped so that a window
// ending at absolute column end keeps at least one maximal tile.
func (ing *Ingester) keepFrom(day, end int) (int, error) {
	ing.mu.Lock()
	col, err := ing.store.ColOffset(day)
	ing.mu.Unlock()
	return min(col, end-1<<ing.opts.Pool.MaxLogCols), err
}

// Run processes pushed days until ctx is cancelled: drain the backlog,
// then sleep until a push wakes us. Errors inside a drain are logged and
// retried on the next wakeup — the store already holds the data, so
// nothing is lost by waiting.
func (ing *Ingester) Run(ctx context.Context) error {
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
// window table, append to (or first-build) the pool, trim / compact /
// seal its segments, publish a snapshot, and only then advance the
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
	from, _ := ing.store.ColOffset(ing.cursor) // cursor ≤ target = NumDays
	added := ing.store.ColsTotal() - from
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

	var pool *core.Pool
	if ing.pool == nil {
		// Only a store that was empty at Resume gets here: the stream
		// starts with this pool.
		pool, err = ing.newPool(ctx, next, 0, nil)
	} else {
		pool, err = ing.pool.Append(ctx, next)
	}
	if err != nil {
		return false, err
	}

	next, pool, winStart, err := ing.maintainSegments(ctx, next, pool, ing.winStart, target)
	if err != nil {
		return false, err
	}
	ing.winStart = winStart
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
