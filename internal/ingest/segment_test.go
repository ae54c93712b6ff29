package ingest

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
	"repro/internal/workload"
)

// segOptions is testOptions with the segment files in a directory of
// their own rather than under the store.
func segOptions(t *testing.T) Options {
	t.Helper()
	opts := testOptions()
	opts.SegmentDir = filepath.Join(t.TempDir(), "segments")
	return opts
}

// assertSketchesEqual is the pool byte-identity yardstick: equality is
// asserted sketch by sketch, to the bit, over every rectangle width and
// column position of got's window (and a spread of heights and rows). want covers got's
// columns and ends where got ends, but may start earlier — the stream's
// pool from column 0 is the oracle of a trimmed window — and is read at
// the same absolute position.
func assertSketchesEqual(t *testing.T, want, got *core.Pool, label string) {
	t.Helper()
	rows, _ := want.TableDims()
	grows, cols := got.TableDims()
	shift := got.BaseCol() - want.BaseCol()
	if rows != grows || shift < 0 || want.HighWaterCols() != got.HighWaterCols() {
		t.Fatalf("%s: want %d rows over columns [%d,%d), got %d rows over [%d,%d)", label,
			rows, want.BaseCol(), want.HighWaterCols(), grows, got.BaseCol(), got.HighWaterCols())
	}
	var wbuf, gbuf []float64
	compared := 0
	for _, rr := range []int{2, 4, 7} {
		for rc := 2; rc <= cols; rc++ {
			if got.CanSketch(table.Rect{Rows: rr, Cols: rc}) != nil {
				continue // no position of this shape sketches: skip the lot
			}
			for r0 := 0; r0+rr <= rows; r0 += 5 {
				for c0 := 0; c0+rc <= cols; c0++ {
					rect := table.Rect{R0: r0, C0: c0, Rows: rr, Cols: rc}
					var err error
					if gbuf, err = got.Sketch(rect, gbuf); err != nil {
						continue // wider than twice the largest pooled tile
					}
					rect.C0 += shift
					if wbuf, err = want.Sketch(rect, wbuf); err != nil {
						t.Fatalf("%s: rect %v: %v", label, rect, err)
					}
					compared++
					for i := range wbuf {
						if math.Float64bits(wbuf[i]) != math.Float64bits(gbuf[i]) {
							t.Fatalf("%s: rect %v (at column %d of the window) lane %d: %v != %v",
								label, rect, c0, i, gbuf[i], wbuf[i])
						}
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatalf("%s: no rectangle compared", label)
	}
}

// streamPool is the oracle of the byte-identity contract: the pool built
// from scratch over the whole stream, column 0 to the last stored day.
func streamPool(t *testing.T, st *tabstore.Store, opts Options) *core.Pool {
	t.Helper()
	return scratchPool(t, st, 0, st.NumDays(), opts)
}

func TestSegmentModeValidation(t *testing.T) {
	st, _ := newTestStore(t)
	opts := testOptions()
	opts.Pool.PanelCols = 12
	if _, err := New(st, opts); err == nil {
		t.Fatal("non-power-of-two PanelCols accepted")
	}
}

// Segment mode must be invisible to queries: the maintained pool reads
// its sealed prefix from memory mappings yet answers bit-identically to
// a from-scratch heap build over the same window.
func TestSegmentModeMatchesHeapBuild(t *testing.T) {
	st, _ := newTestStore(t)
	opts := segOptions(t)
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	pl := ing.Pool()
	if pl.SealedCols() == 0 {
		t.Fatal("nothing sealed after five days")
	}
	if pl.MappedBytes() == 0 {
		t.Fatal("sealed prefix is not mmap-backed")
	}
	if len(ing.segs.SegmentFiles()) == 0 {
		t.Fatal("no segment files on disk")
	}
	assertSketchesEqual(t, scratchPool(t, st, 0, 5, opts), pl, "segment vs heap")
}

// The instant-restart contract: after a kill, a new process maps the
// segments, rebuilds only the fringe (fewer FFT correlations than a
// full build), reports restart_replay_days = 0, and answers every query
// bit-identically to the pre-kill pool.
func TestSegmentRestartNoReplayAndIdenticalAnswers(t *testing.T) {
	for name, opts := range map[string]Options{
		"named directory":   segOptions(t),
		"default directory": testOptions(), // SegmentDir unset: <store>/segments
	} {
		t.Run(name, func(t *testing.T) {
			st, dir := newTestStore(t)
			ing, err := New(st, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
			}
			if err := ing.drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			// SIGKILL: the old process is simply abandoned — nothing is
			// flushed or closed. The WAL and the sealed segments are the
			// survivors.

			st2, err := tabstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ing2, err := New(st2, opts)
			if err != nil {
				t.Fatal(err)
			}
			before := fft.CorrelationCount()
			if err := ing2.Resume(context.Background()); err != nil {
				t.Fatal(err)
			}
			resumeCorr := fft.CorrelationCount() - before
			if got := segstore.ReadStats().RestartReplayDays; got != 0 {
				t.Fatalf("restart_replay_days = %d after a warm segment restart, want 0", got)
			}

			before = fft.CorrelationCount()
			ref := scratchPool(t, st2, 0, 5, opts)
			scratchCorr := fft.CorrelationCount() - before
			if resumeCorr >= scratchCorr {
				t.Fatalf("segment resume ran %d correlations, not fewer than the %d of a full rebuild",
					resumeCorr, scratchCorr)
			}
			assertSketchesEqual(t, ing.Pool(), ing2.Pool(), "pre-kill vs restarted")
			assertSketchesEqual(t, ref, ing2.Pool(), "heap vs restarted")
			t.Logf("segment resume: %d correlations vs %d from scratch", resumeCorr, scratchCorr)
		})
	}
}

// A crash with days acknowledged but not yet sealed replays exactly
// those days — the WAL-ack contract — and reports them.
func TestSegmentRestartReportsPendingReplay(t *testing.T) {
	st, dir := newTestStore(t)
	opts := segOptions(t)
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d04", day(4)) // durable, never sealed

	st2, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ing2, err := New(st2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := segstore.ReadStats().RestartReplayDays; got == 0 {
		t.Fatal("restart_replay_days = 0 with an unsealed acknowledged day")
	}
	assertSketchesEqual(t, scratchPool(t, st2, 0, 5, opts), ing2.Pool(), "heap vs restarted with backlog")
}

// Window trimming in segment mode is whole-segment deletion: the base
// advances with the store's, and the trimmed pool still answers
// bit-identically to the stream's pool at the same absolute columns.
func TestSegmentWindowTrim(t *testing.T) {
	st, _ := newTestStore(t)
	opts := segOptions(t)
	opts.WindowDays = 4
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	base := ing.Pool().BaseCol()
	if base == 0 {
		t.Fatal("window never trimmed")
	}
	if got := ing.segs.BaseCol(); got != base {
		t.Fatalf("segment base %d, pool base %d", got, base)
	}
	if got := ing.tb.Cols(); base+got != st.ColsTotal() {
		t.Fatalf("window table has %d columns from base %d, store ends at %d", got, base, st.ColsTotal())
	}
	// The test geometry keeps day width == segment alignment, so the
	// trimmed base is day-aligned.
	if off, err := st.ColOffset(ing.winStart); err != nil || off != base {
		t.Fatalf("trimmed base %d not day-aligned (day %d starts at %d, err %v)", base, ing.winStart, off, err)
	}
	assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "trimmed segment window vs the stream")
}

// swapPublisher mimics the server: it retains each published snapshot
// as the serving one and releases the previous, while readers pin the
// current snapshot around each query. Running queries concurrently with
// ingest maintenance (seal, trim, compaction, reclamation) under -race
// is the use-after-unmap probe for the refcounted-epoch protocol.
type swapPublisher struct {
	mu sync.Mutex
	sn *server.Snapshot
}

func (p *swapPublisher) Publish(sn *server.Snapshot) {
	sn.Retain()
	p.mu.Lock()
	old := p.sn
	p.sn = sn
	p.mu.Unlock()
	if old != nil {
		old.Release()
	}
}

func (p *swapPublisher) acquire() *server.Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sn != nil {
		p.sn.Retain()
	}
	return p.sn
}

func (p *swapPublisher) close() {
	p.mu.Lock()
	old := p.sn
	p.sn = nil
	p.mu.Unlock()
	if old != nil {
		old.Release()
	}
}

func TestSegmentCompactionUnderLiveQueries(t *testing.T) {
	st, _ := newTestStore(t)
	pub := &swapPublisher{}
	opts := segOptions(t)
	opts.Publisher = pub
	opts.Snapshot = server.SnapshotConfig{TileRows: 8, TileCols: 8}
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := segstore.ReadStats()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []float64
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := pub.acquire()
				if sn == nil {
					continue
				}
				pl := sn.Pool()
				_, cols := pl.TableDims()
				for c0 := 0; c0+4 <= cols; c0 += 4 {
					var err error
					buf, err = pl.Sketch(table.Rect{R0: 0, C0: c0, Rows: 4, Cols: 4}, buf)
					if err != nil {
						panic(err)
					}
					for _, v := range buf {
						if math.IsNaN(v) {
							panic("NaN sketch from a live snapshot")
						}
					}
				}
				sn.Release()
			}
		}()
	}
	for i := 0; i < 10; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	pub.close()

	after := segstore.ReadStats()
	if after.Compactions == before.Compactions {
		t.Fatal("no compaction ran across ten days of maintenance")
	}
	if after.Reclaimed == before.Reclaimed {
		t.Fatal("no retired segment was reclaimed once its snapshots released")
	}
	// With every snapshot released, on-disk files must be exactly the
	// live manifest set.
	live := map[string]bool{}
	for _, f := range ing.segs.SegmentFiles() {
		live[f] = true
	}
	got, err := filepath.Glob(filepath.Join(opts.SegmentDir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(live) {
		t.Fatalf("%d segment files on disk, %d live", len(got), len(live))
	}
	for _, p := range got {
		if !live[filepath.Base(p)] {
			t.Fatalf("stray segment file %s survived reclamation", filepath.Base(p))
		}
	}
	assertSketchesEqual(t,
		scratchPool(t, st, ing.winStart, 10, opts), ing.Pool(), "post-churn segment window vs heap")
}

// streamOptions is a multi-size pool whose tile widths lie below, at and
// above the panel width (2, 4, 8 against 4), so segments are cut every
// 8 columns and a panel of the widest size spans two of the narrowest.
func streamOptions(t *testing.T) Options {
	t.Helper()
	opts := segOptions(t)
	opts.Pool.PanelCols = 4
	opts.WindowDays = 10
	return opts
}

// raggedDay is a day whose width is no multiple of the panel width, so
// appends, seals and trims all cut inside days.
func raggedDay(i int) *table.Table {
	return workload.Random(testRows, []int{5, 7, 9, 3, 11, 6, 10}[i%7], 100, uint64(100+i))
}

// TestStreamRestriction is the byte-identity contract: through ragged
// appends, seals, compactions, window trims, re-bases and a restart,
// every sketchable rectangle of the ingester's window equals, bit for
// bit, the same absolute rectangle of core.NewPool over the whole
// stream from column 0. Its window is 16 days: in streamOptions' 10 the
// next trim deletes every run a merge could take, so no merge runs.
func TestStreamRestriction(t *testing.T) {
	st, dir := newTestStore(t)
	opts := streamOptions(t)
	opts.WindowDays = 16
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := segstore.ReadStats()
	trims, lastBase := 0, 0
	for i := 0; i < 40; i++ {
		if i == 23 { // close, reopen the store and resume from the segments
			ing.Close()
			if st, err = tabstore.Open(dir); err != nil {
				t.Fatal(err)
			}
			if ing, err = New(st, opts); err != nil {
				t.Fatal(err)
			}
			if err := ing.Resume(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "resumed window vs the stream")
		}
		mustPush(t, ing, fmt.Sprintf("d%02d", i), raggedDay(i))
		if i == 0 {
			continue // narrower than the widest tile: the first pool needs two days
		}
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		pl := ing.Pool()
		if pl.BaseCol()%pl.SegAlign() != 0 || pl.HighWaterCols() != st.ColsTotal() || ing.segs.BaseCol() != pl.BaseCol() {
			t.Fatalf("day %d: pool over [%d,%d), segments from %d, store ends at %d",
				i, pl.BaseCol(), pl.HighWaterCols(), ing.segs.BaseCol(), st.ColsTotal())
		}
		if pl.BaseCol() != lastBase {
			trims, lastBase = trims+1, pl.BaseCol()
		}
		assertSketchesEqual(t, streamPool(t, st, opts), pl, fmt.Sprintf("window after day %d vs the stream", i))
	}
	defer ing.Close()
	if compactions := segstore.ReadStats().Compactions - before.Compactions; trims < 3 || compactions < 2 {
		t.Fatalf("%d trims and %d compactions in 40 days, want at least 3 and 2", trims, compactions)
	}
}

// TestLeadingSegmentLossRepair: when fsck quarantines the window's
// leading segment (and with it every later one), the restart cannot
// sketch the bare window — its first panels would lack the left context
// the stream gave them — so it loads one alignment of context from the
// WAL, seals from that pool and re-bases: answers after the repair equal
// the answers before it, and the stream's.
func TestLeadingSegmentLossRepair(t *testing.T) {
	st, dir := newTestStore(t)
	opts := streamOptions(t)
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), raggedDay(i))
		if i == 0 {
			continue // narrower than the widest tile: the first pool needs two days
		}
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	base := ing.Pool().BaseCol()
	if base == 0 {
		t.Fatal("window never trimmed: the leading segment would start the stream")
	}
	// Keep the answers, not the pool: its sealed bands go with the mappings.
	type answer struct {
		rect   table.Rect
		sketch []float64
	}
	var answers []answer
	_, cols := ing.Pool().TableDims()
	for rc := 2; rc <= 16; rc++ {
		for c0 := 0; c0+rc <= cols; c0++ {
			rect := table.Rect{R0: 3, C0: c0, Rows: 7, Cols: rc}
			sk, err := ing.Pool().Sketch(rect, nil)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, answer{rect, sk})
		}
	}
	leading := ing.segs.Segments()[0]
	ing.Close()

	// Bit rot in the leading segment's last lane blob.
	path := filepath.Join(opts.SegmentDir, leading.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-4096] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := segstore.Fsck(opts.SegmentDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) == 0 || rep.Quarantined[0] != leading.File {
		t.Fatalf("fsck quarantined %v, want the leading segment %s first", rep.Quarantined, leading.File)
	}

	if st, err = tabstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	if ing, err = New(st, opts); err != nil {
		t.Fatal(err)
	}
	if err := ing.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	pl := ing.Pool()
	if pl.BaseCol() != base || ing.segs.BaseCol() != base || ing.tb.Cols() != cols {
		t.Fatalf("repaired window starts at %d (segments at %d) with %d columns, want %d with %d",
			pl.BaseCol(), ing.segs.BaseCol(), ing.tb.Cols(), base, cols)
	}
	if pl.SealedCols() == 0 || pl.MappedBytes() == 0 {
		t.Fatal("the repair sealed nothing")
	}
	for _, a := range answers {
		got, err := pl.Sketch(a.rect, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(a.sketch[i]) {
				t.Fatalf("rect %v lane %d: %v after the repair, %v before it", a.rect, i, got[i], a.sketch[i])
			}
		}
	}
	assertSketchesEqual(t, streamPool(t, st, opts), pl, "repaired window vs the stream")
}

// TestCompactionSurvivesNextTrim is the property test of window-aware
// compaction, over windows of 4, 8, 16 and 64 days and over days of one
// segment each and ragged days that segments cut inside: no merged
// segment is deleted by the first trim after the merge, the live set
// never holds more segments than W + 1 days' columns fill, and every
// window answers bit for bit as the stream's pool does. At W = 8 with
// one-segment days — ingest_live's shape — no merge runs at all. Without
// a window (W = 0) every round merges what Compact alone would.
func TestCompactionSurvivesNextTrim(t *testing.T) {
	for _, ragged := range []bool{false, true} {
		for _, w := range []int{0, 4, 8, 16, 64} {
			name := fmt.Sprintf("W=%d/one-segment days", w)
			if ragged {
				name = fmt.Sprintf("W=%d/ragged days", w)
			}
			t.Run(name, func(t *testing.T) {
				dayAt := func(i int) *table.Table { return day(uint64(i)) }
				if ragged {
					dayAt = raggedDay
				}
				days := max(40, w+w/2+8)
				opts := segOptions(t)
				opts.WindowDays = w
				compactions := windowProperties(t, opts, dayAt, days)
				if !ragged && w == 8 && compactions != 0 {
					t.Fatalf("%d compactions in %d one-segment days under an 8-day window, want 0", compactions, days)
				}
				if w == 0 && compactions == 0 {
					t.Fatalf("no compaction in %d days without a window", days)
				}
			})
		}
	}
}

// windowProperties pushes days days through an ingester with opts and
// checks the window-aware compaction properties after every round (see
// TestCompactionSurvivesNextTrim); without a window it replays every
// round's seal on a model of the live set that Compact alone maintains,
// and wants the two sets equal. Returns the compactions that ran.
func windowProperties(t *testing.T, opts Options, dayAt func(int) *table.Table, days int) int64 {
	t.Helper()
	st, _ := newTestStore(t)
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	align := ing.segParams().SegAlign()
	widths := make([]int, days)
	for i := range widths {
		widths[i] = dayAt(i).Cols()
	}
	// The most columns any W + 1 consecutive days hold, in segments.
	maxLive := 0
	for i := range widths {
		cols := 0
		for _, c := range widths[i:min(i+opts.WindowDays+1, days)] {
			cols += c
		}
		maxLive = max(maxLive, (cols+align-1)/align)
	}
	before := segstore.ReadStats()
	seen := map[uint64]bool{}
	var pending []segstore.Entry // merged segments no trim has passed over yet
	var model []segstore.Entry   // W = 0: the live set under Compact
	lastBase := 0
	for i := 0; i < days; i++ {
		mustPush(t, ing, fmt.Sprintf("d%03d", i), dayAt(i))
		if ing.pool == nil && st.ColsTotal() < 1<<opts.Pool.MaxLogCols {
			continue // narrower than the widest tile: the first pool needs two days
		}
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		// A round trims before it merges, so a merge this round is judged
		// by the next round that moves the base.
		if base := ing.segs.BaseCol(); base != lastBase {
			for _, e := range pending {
				if e.T1 <= base {
					t.Fatalf("day %d: the trim to column %d deleted merged segment %+v", i, base, e)
				}
			}
			pending, lastBase = nil, base
		}
		live := ing.segs.Segments()
		for _, e := range live {
			if e.Level > 0 && !seen[e.Seq] {
				seen[e.Seq] = true
				pending = append(pending, e)
			}
		}
		if opts.WindowDays > 0 && len(live) > maxLive {
			t.Fatalf("day %d: %d live segments, more than the %d that %d days' columns fill",
				i, len(live), maxLive, opts.WindowDays+1)
		}
		if opts.WindowDays == 0 {
			// A round merges, then seals.
			model = compactLeftmostRun(model, segstore.DefaultCompactFanout)
			sealed := 0
			if len(model) > 0 {
				sealed = model[len(model)-1].T1
			}
			if end := ing.segs.SealedCol(); end > sealed {
				model = append(model, segstore.Entry{T0: sealed, T1: end})
			}
			if len(model) != len(live) {
				t.Fatalf("day %d: live segments %+v, Compact alone keeps %+v", i, live, model)
			}
			for n, e := range model {
				if g := live[n]; g.Level != e.Level || g.T0 != e.T0 || g.T1 != e.T1 {
					t.Fatalf("day %d: live segments %+v, Compact alone keeps %+v", i, live, model)
				}
			}
		}
		assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), fmt.Sprintf("window after day %d vs the stream", i))
	}
	return segstore.ReadStats().Compactions - before.Compactions
}

// compactLeftmostRun is the model of one Compact call: the leftmost run
// of fanout same-level segments becomes one segment of the next level.
func compactLeftmostRun(segs []segstore.Entry, fanout int) []segstore.Entry {
	for i := 0; i < len(segs); {
		j := i
		for j < len(segs) && segs[j].Level == segs[i].Level {
			j++
		}
		if j-i >= fanout {
			merged := segstore.Entry{Level: segs[i].Level + 1, T0: segs[i].T0, T1: segs[i+fanout-1].T1}
			return append(append(append([]segstore.Entry(nil), segs[:i]...), merged), segs[i+fanout:]...)
		}
		i = j
	}
	return segs
}
