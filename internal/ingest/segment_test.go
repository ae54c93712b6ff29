package ingest

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/segstore"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
)

// segOptions is testOptions with the segment files in a directory of
// their own rather than under the store.
func segOptions(t *testing.T) Options {
	t.Helper()
	opts := testOptions()
	opts.SegmentDir = filepath.Join(t.TempDir(), "segments")
	return opts
}

// assertSketchesEqual is the pool byte-identity yardstick: SavePool
// refuses pools with sealed bands, so equality is asserted sketch-by-
// sketch over every enumerable rect, to the bit.
func assertSketchesEqual(t *testing.T, want, got *core.Pool, label string) {
	t.Helper()
	rows, cols := want.TableDims()
	grows, gcols := got.TableDims()
	if rows != grows || cols != gcols {
		t.Fatalf("%s: dims %dx%d vs %dx%d", label, rows, cols, grows, gcols)
	}
	var rects []table.Rect
	for _, rr := range []int{2, 4, 7} {
		for _, rc := range []int{2, 4, 7} {
			for r0 := 0; r0+rr <= rows; r0 += 5 {
				for c0 := 0; c0+rc <= cols; c0 += 3 {
					rects = append(rects, table.Rect{R0: r0, C0: c0, Rows: rr, Cols: rc})
				}
			}
		}
	}
	var wbuf, gbuf []float64
	for _, rect := range rects {
		var err error
		wbuf, err = want.Sketch(rect, wbuf)
		if err != nil {
			continue
		}
		gbuf, err = got.Sketch(rect, gbuf)
		if err != nil {
			t.Fatalf("%s: rect %v: %v", label, rect, err)
		}
		for i := range wbuf {
			if math.Float64bits(wbuf[i]) != math.Float64bits(gbuf[i]) {
				t.Fatalf("%s: rect %v lane %d: %v != %v", label, rect, i, gbuf[i], wbuf[i])
			}
		}
	}
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
// bit-identically to a from-scratch build over the surviving window.
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
	if ing.base == 0 {
		t.Fatal("window never trimmed")
	}
	if got := ing.segs.BaseCol(); got != ing.base {
		t.Fatalf("segment base %d, window base %d", got, ing.base)
	}
	if got := ing.Pool().BaseCol(); got != ing.base {
		t.Fatalf("pool BaseCol %d, window base %d", got, ing.base)
	}
	// The test geometry keeps day width == segment alignment, so the
	// trimmed base is day-aligned and a day-range scratch pool is a
	// valid reference.
	start, _, err := ing.dayContaining(ing.base)
	if err != nil {
		t.Fatal(err)
	}
	if off, err := st.ColOffset(start); err != nil || off != ing.base {
		t.Fatalf("trimmed base %d not day-aligned (day %d starts at %d, err %v)", ing.base, start, off, err)
	}
	assertSketchesEqual(t, scratchPool(t, st, start, 8, opts), ing.Pool(), "trimmed segment window vs heap")
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
