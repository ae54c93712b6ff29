package segstore

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// Test geometry: small enough to be fast, awkward enough to exercise
// alignment — segAlign = max(PanelCols=4, 2^MaxLogCols=4) = 4.
func testParams() Params {
	return Params{P: 2, K: 8, Rows: 8, Seed: 42,
		MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2,
		PanelCols: 4}
}

func testOpts(p Params) core.PoolOptions {
	return core.PoolOptions{
		MinLogRows: p.MinLogRows, MaxLogRows: p.MaxLogRows,
		MinLogCols: p.MinLogCols, MaxLogCols: p.MaxLogCols,
		PanelCols: p.PanelCols,
	}
}

func testTable(t testing.TB, rows, cols, baseCol int) *table.Table {
	t.Helper()
	tb := table.New(rows, cols)
	d := tb.Data()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			abs := c + baseCol
			d[r*cols+c] = math.Sin(float64(r*131+abs*17)) + float64(abs%7)
		}
	}
	return tb
}

// rectsFor enumerates query rectangles covering exact-dyadic and
// compound shapes across the table.
func rectsFor(rows, cols int) []table.Rect {
	var rects []table.Rect
	for _, rr := range []int{2, 3, 4} {
		for _, rc := range []int{2, 3, 4} {
			for r0 := 0; r0+rr <= rows; r0 += 3 {
				for c0 := 0; c0+rc <= cols; c0 += 3 {
					rects = append(rects, table.Rect{R0: r0, C0: c0, Rows: rr, Cols: rc})
				}
			}
		}
	}
	return rects
}

// assertPoolsIdentical compares sketches of every enumerable rect of
// got byte-for-byte with want at the same absolute columns: want ends
// where got ends and starts there or earlier (the pool over the whole
// stream is the oracle of a trimmed window).
func assertPoolsIdentical(t *testing.T, want, got *core.Pool, label string) {
	t.Helper()
	rows, _ := want.TableDims()
	grows, cols := got.TableDims()
	shift := got.BaseCol() - want.BaseCol()
	if rows != grows || shift < 0 || want.HighWaterCols() != got.HighWaterCols() {
		t.Fatalf("%s: want %d rows over columns [%d,%d), got %d rows over [%d,%d)", label,
			rows, want.BaseCol(), want.HighWaterCols(), grows, got.BaseCol(), got.HighWaterCols())
	}
	var wbuf, gbuf []float64
	for _, rect := range rectsFor(rows, cols) {
		var err error
		gbuf, err = got.Sketch(rect, gbuf)
		if err != nil {
			continue
		}
		rect.C0 += shift
		wbuf, err = want.Sketch(rect, wbuf)
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

func mustBanded(t *testing.T, tb *table.Table, p Params, baseCol int, sealed []core.SealedBand) *core.Pool {
	t.Helper()
	opts := testOpts(p)
	opts.BaseCol = baseCol
	pl, err := core.NewBandedPool(tb, p.P, p.K, p.Seed, opts, sealed)
	if err != nil {
		t.Fatalf("NewBandedPool: %v", err)
	}
	return pl
}

func mustHeap(t *testing.T, tb *table.Table, p Params, baseCol int) *core.Pool {
	t.Helper()
	opts := testOpts(p)
	opts.BaseCol = baseCol
	pl, err := core.NewPool(tb, p.P, p.K, p.Seed, opts)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return pl
}

// sealAll seals the pool's full sealable prefix into the store in
// chunks of chunk columns (0 = one segment). A tile is sealed with the
// column it ends in, so the sealable prefix is every whole alignment
// block of the table — ⌊cols / SegAlign⌋ blocks: all 20 columns of the
// tests' 20-column table at alignment 4, five chunks of 4 — with no
// lag for the widest tile.
func sealAll(t *testing.T, st *Store, pl *core.Pool, chunk int) {
	t.Helper()
	limit := pl.BaseCol() + pl.SealableCols()
	at := st.SealedCol()
	for at < limit {
		end := limit
		if chunk > 0 && at+chunk < limit {
			end = at + chunk
		}
		if err := st.WriteL0(pl, at, end); err != nil {
			t.Fatalf("WriteL0 [%d,%d): %v", at, end, err)
		}
		at = end
	}
}

func TestSealMapAndServeByteIdentical(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)
	heap := mustHeap(t, tb, p, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	banded := mustBanded(t, tb, p, 0, nil)
	assertPoolsIdentical(t, heap, banded, "all-fringe banded vs heap")
	sealAll(t, st, banded, 4) // 20 sealable cols → 5 L0 segments

	v := st.Acquire()
	defer v.Release()
	if v.SealedCol() != 20 || v.NumSegments() != 5 {
		t.Fatalf("sealed to %d with %d segments, want 20 with 5", v.SealedCol(), v.NumSegments())
	}
	mapped := mustBanded(t, tb, p, 0, v.Bands(0))
	if mapped.MappedBytes() == 0 {
		t.Fatal("mapped pool reports zero mapped bytes")
	}
	assertPoolsIdentical(t, heap, mapped, "mmap-banded vs heap")

	// Reband the working pool onto the mapped set: same bytes, new backing.
	rebanded, err := banded.Reband(0, v.Bands(0))
	if err != nil {
		t.Fatalf("Reband: %v", err)
	}
	assertPoolsIdentical(t, heap, rebanded, "rebanded vs heap")
	st.Close()

	// Restart: a fresh Open + map must serve identical bytes.
	st2, err := Open(dir, p)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	v2 := st2.Acquire()
	defer v2.Release()
	restarted := mustBanded(t, tb, p, 0, v2.Bands(0))
	assertPoolsIdentical(t, heap, restarted, "restarted vs heap")
}

func TestCompactMergePreservesBytes(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)
	heap := mustHeap(t, tb, p, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 4)

	before := ReadStats()
	did, err := st.Compact(4)
	if err != nil || !did {
		t.Fatalf("Compact: did=%v err=%v", did, err)
	}
	after := ReadStats()
	if d := after.Compactions - before.Compactions; d != 1 {
		t.Fatalf("compactions delta %d, want 1", d)
	}
	segs := st.Segments()
	if len(segs) != 2 || segs[0].Level != 1 || segs[0].T0 != 0 || segs[0].T1 != 16 ||
		segs[1].Level != 0 || segs[1].T0 != 16 || segs[1].T1 != 20 {
		t.Fatalf("post-compaction segments %+v, want an L1 [0,16) and the fifth L0 [16,20)", segs)
	}
	v := st.Acquire()
	defer v.Release()
	merged := mustBanded(t, tb, p, 0, v.Bands(0))
	assertPoolsIdentical(t, heap, merged, "compacted vs heap")

	// A second compaction has nothing to do.
	if did, err := st.Compact(4); err != nil || did {
		t.Fatalf("idle Compact: did=%v err=%v", did, err)
	}
}

// TestCompactAfterHorizon: CompactAfter takes its run only among the
// segments ending after the horizon. Over nine 4-column L0 segments
// (columns [0, 36)), a run lying wholly at or before the horizon is
// skipped, a segment straddling it is eligible, the leftmost eligible run
// is merged, and a horizon at or below the base merges what Compact does.
func TestCompactAfterHorizon(t *testing.T) {
	p := testParams()
	tb := testTable(t, p.Rows, 36, 0)
	heap := mustHeap(t, tb, p, 0)
	for _, tc := range []struct {
		name    string
		horizon int
		merged  [2]int // the L1's columns; [0 0]: no merge
	}{
		{"below the base", -8, [2]int{0, 16}},
		{"at the base", 0, [2]int{0, 16}},
		{"inside the first segment", 3, [2]int{0, 16}},
		{"first run wholly before", 16, [2]int{16, 32}},
		{"straddling segment eligible", 14, [2]int{12, 28}},
		{"leftmost of the eligible", 8, [2]int{8, 24}},
		{"last four eligible", 20, [2]int{20, 36}},
		{"too few eligible", 24, [2]int{}},
		{"past the end", 40, [2]int{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir(), p)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer st.Close()
			sealAll(t, st, mustBanded(t, tb, p, 0, nil), 4)
			did, err := st.CompactAfter(4, tc.horizon)
			if err != nil || did != (tc.merged != [2]int{}) {
				t.Fatalf("CompactAfter(4, %d): did=%v err=%v", tc.horizon, did, err)
			}
			var got [2]int
			for _, e := range st.Segments() {
				if e.Level == 1 {
					got = [2]int{e.T0, e.T1}
				} else if e.Level != 0 || e.T1-e.T0 != 4 {
					t.Fatalf("unexpected segment %+v", e)
				}
			}
			if got != tc.merged {
				t.Fatalf("merged columns %v, want %v (segments %+v)", got, tc.merged, st.Segments())
			}
			if tc.horizon <= 0 { // Compact's own run, on a twin store
				twin, err := Open(t.TempDir(), p)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer twin.Close()
				sealAll(t, twin, mustBanded(t, tb, p, 0, nil), 4)
				if did, err := twin.Compact(4); err != nil || !did {
					t.Fatalf("Compact: did=%v err=%v", did, err)
				}
				if a, b := st.Segments(), twin.Segments(); !reflect.DeepEqual(a, b) {
					t.Fatalf("CompactAfter at horizon %d left %+v, Compact %+v", tc.horizon, a, b)
				}
			}
			v := st.Acquire()
			defer v.Release()
			assertPoolsIdentical(t, heap, mustBanded(t, tb, p, 0, v.Bands(0)), "compacted vs heap")
		})
	}
}

// TestBytesWrittenCountsCommittedFiles: tabmine_seg_bytes_written_total
// grows by the committed file's bytes on a seal and on a merge, and not
// at all on a trim.
func TestBytesWrittenCountsCommittedFiles(t *testing.T) {
	p := testParams()
	tb := testTable(t, p.Rows, 20, 0)
	st, err := Open(t.TempDir(), p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, tb, p, 0, nil)
	for c := 0; c < 20; c += 4 {
		before := ReadStats().BytesWritten
		if err := st.WriteL0(banded, c, c+4); err != nil {
			t.Fatalf("WriteL0: %v", err)
		}
		segs := st.Segments()
		if d, want := ReadStats().BytesWritten-before, segs[len(segs)-1].Bytes; d != want || want == 0 {
			t.Fatalf("seal of [%d,%d): bytes written grew %d, the file is %d", c, c+4, d, want)
		}
	}
	before := ReadStats().BytesWritten
	if did, err := st.Compact(4); err != nil || !did {
		t.Fatalf("Compact: did=%v err=%v", did, err)
	}
	if d, want := ReadStats().BytesWritten-before, st.Segments()[0].Bytes; d != want {
		t.Fatalf("merge: bytes written grew %d, the merged file is %d", d, want)
	}
	before = ReadStats().BytesWritten
	if base, err := st.Trim(16); err != nil || base != 16 {
		t.Fatalf("Trim(16): base %d err %v", base, err)
	}
	if d := ReadStats().BytesWritten - before; d != 0 {
		t.Fatalf("trim: bytes written grew %d", d)
	}
}

func TestRefcountedReclamation(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 4)
	oldFiles := st.SegmentFiles()[:4] // the merge's inputs; the fifth L0 stays live

	// A snapshot-style view pins the pre-compaction set.
	v := st.Acquire()
	pool := mustBanded(t, tb, p, 0, v.Bands(0))

	before := ReadStats()
	if did, err := st.Compact(4); err != nil || !did {
		t.Fatalf("Compact: did=%v err=%v", did, err)
	}
	// Old files must still exist (view holds them) and old bytes must
	// still be readable through the pool.
	for _, f := range oldFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("pre-compaction segment %s vanished while referenced: %v", f, err)
		}
	}
	if _, err := pool.Sketch(table.Rect{R0: 0, C0: 0, Rows: 4, Cols: 4}, nil); err != nil {
		t.Fatalf("query over retired-but-referenced segments: %v", err)
	}

	v.Release()
	v.Release() // idempotent
	for _, f := range oldFiles {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("retired segment %s not unlinked after last reference dropped", f)
		}
	}
	after := ReadStats()
	if d := after.Reclaimed - before.Reclaimed; d != 4 {
		t.Fatalf("reclaimed delta %d, want 4", d)
	}
}

func TestTrimDropsWholeSegments(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 4)

	// Ask to keep from column 6: only segments with T1 ≤ 6 drop, so the
	// new base is 4, not 6 — trims round down to whole segments.
	newBase, err := st.Trim(6)
	if err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if newBase != 4 || st.BaseCol() != 4 {
		t.Fatalf("trim to base %d (store %d), want 4", newBase, st.BaseCol())
	}
	if n := len(st.Segments()); n != 4 {
		t.Fatalf("%d segments after trim, want 4", n)
	}

	// The trimmed store serves the suffix window byte-identically to the
	// stream's pool at the same absolute columns (segment alignment keeps
	// the absolute panel grid intact), both mapped afresh and as the
	// re-based working pool.
	sub := tb.Sub(table.Rect{R0: 0, C0: 4, Rows: p.Rows, Cols: 16})
	stream := mustHeap(t, tb, p, 0)
	v := st.Acquire()
	defer v.Release()
	pool := mustBanded(t, sub, p, 4, v.Bands(4))
	assertPoolsIdentical(t, stream, pool, "trimmed vs the stream")
	rebased, err := banded.Reband(4, v.Bands(4))
	if err != nil {
		t.Fatalf("Reband(4): %v", err)
	}
	assertPoolsIdentical(t, stream, rebased, "re-based vs the stream")

	// Trim below the current base is a no-op.
	if nb, err := st.Trim(2); err != nil || nb != 4 {
		t.Fatalf("no-op trim: base %d err %v", nb, err)
	}
}

// TestRebaseOnlyAnEmptyStore: Rebase moves the base of a store with no
// live segment, durably, to an aligned column, and refuses while any
// segment is live or at a column off the alignment.
func TestRebaseOnlyAnEmptyStore(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { st.Close() }()
	sealAll(t, st, mustBanded(t, testTable(t, p.Rows, 20, 0), p, 0, nil), 4)
	if err := st.Rebase(24); err == nil {
		t.Fatal("Rebase with live segments accepted")
	}
	if _, err := st.Trim(st.SealedCol()); err != nil {
		t.Fatalf("Trim: %v", err)
	}
	if err := st.Rebase(26); err == nil {
		t.Fatal("Rebase to an unaligned column accepted")
	}
	if err := st.Rebase(28); err != nil {
		t.Fatalf("Rebase(28): %v", err)
	}
	if st.BaseCol() != 28 || st.SealedCol() != 28 {
		t.Fatalf("rebased store at [%d, %d), want [28, 28)", st.BaseCol(), st.SealedCol())
	}
	st.Close()
	if st, err = Open(dir, p); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st.BaseCol() != 28 {
		t.Fatalf("reopened store at base %d, want 28", st.BaseCol())
	}
	// The next seal starts at the new base.
	tb := testTable(t, p.Rows, 36, 0)
	sub := tb.Sub(table.Rect{R0: 0, C0: 24, Rows: p.Rows, Cols: 12})
	if err := st.WriteL0(mustBanded(t, sub, p, 24, nil), 28, 36); err != nil {
		t.Fatalf("WriteL0 at the new base: %v", err)
	}
}

// TestViewBandsWantTheViewsBase pins View.Bands' precondition: the
// bands of a trimmed view start a pool at the view's base, and at any
// other base they are refused rather than served shifted.
func TestViewBandsWantTheViewsBase(t *testing.T) {
	p := testParams()
	tb := testTable(t, p.Rows, 20, 0)
	st, err := Open(t.TempDir(), p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	sealAll(t, st, mustBanded(t, tb, p, 0, nil), 4)
	if _, err := st.Trim(4); err != nil {
		t.Fatalf("Trim: %v", err)
	}
	v := st.Acquire()
	defer v.Release()
	if v.BaseCol() != 4 {
		t.Fatalf("view base %d, want 4", v.BaseCol())
	}
	window := func(base int) *table.Table {
		return tb.Sub(table.Rect{R0: 0, C0: base, Rows: p.Rows, Cols: 20 - base})
	}
	assertPoolsIdentical(t, mustHeap(t, tb, p, 0), mustBanded(t, window(4), p, 4, v.Bands(4)), "view base")
	for _, base := range []int{0, 8} {
		opts := testOpts(p)
		opts.BaseCol = base
		if _, err := core.NewBandedPool(window(base), p.P, p.K, p.Seed, opts, v.Bands(base)); err == nil {
			t.Fatalf("bands of a view based at 4 accepted at base %d", base)
		}
	}
}

// A parameter change (here -k 16 → 32) is refused with an error that
// names the segments directory and the way out: its contents are derived
// from the day files, so removing it lets the next Open start afresh.
func TestOpenRejectsParamMismatch(t *testing.T) {
	p := testParams()
	p.K = 16
	dir := filepath.Join(t.TempDir(), "segments")
	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st.Close()
	q := p
	q.K = 32
	_, err = Open(dir, q)
	if err == nil {
		t.Fatal("Open with mismatched k succeeded, want error")
	}
	for _, want := range []string{dir, "derived from", "remove"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not mention %q", err, want)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, q)
	if err != nil {
		t.Fatalf("Open after removing the directory: %v", err)
	}
	st.Close()
}

func TestOpenGCsUnmanifestedSegments(t *testing.T) {
	p := testParams()
	dir := t.TempDir()
	tb := testTable(t, p.Rows, 20, 0)
	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	banded := mustBanded(t, tb, p, 0, nil)
	sealAll(t, st, banded, 0)
	st.Close()

	// An orphan that looks like a segment (crash between file write and
	// manifest commit) must be deleted; the live one must survive.
	orphan := filepath.Join(dir, "seg-99999999-l0.seg")
	if err := os.WriteFile(orphan, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, p)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("unmanifested segment file survived Open")
	}
	if n := len(st2.Segments()); n != 1 {
		t.Fatalf("%d live segments after GC, want 1", n)
	}
}

func TestManifestValidationRejectsHostileEntries(t *testing.T) {
	p := testParams()
	base := &manifest{Version: 1, Params: toManifestParams(p), NextSeq: 10}
	good := Entry{File: "seg-00000001-l0.seg", Seq: 1, T0: 0, T1: 4, Bytes: 100, CRC: 1}
	cases := []struct {
		name   string
		mutate func(*manifest)
	}{
		{"traversal file name", func(m *manifest) {
			m.Segments[0].File = "../../etc/passwd"
		}},
		{"absolute file name", func(m *manifest) {
			m.Segments[0].File = "/etc/passwd"
		}},
		{"temp file name", func(m *manifest) {
			m.Segments[0].File = "seg-x.seg.tmp-123"
		}},
		{"zero column count", func(m *manifest) {
			m.Segments[0].T1 = m.Segments[0].T0
		}},
		{"negative column count", func(m *manifest) {
			m.Segments[0].T1 = m.Segments[0].T0 - 4
		}},
		{"unaligned range", func(m *manifest) {
			m.Segments[0].T1 = m.Segments[0].T0 + 3
		}},
		{"discontiguous tiling", func(m *manifest) {
			m.Segments[0].T0 += 4
			m.Segments[0].T1 += 4
		}},
		{"non-positive size", func(m *manifest) {
			m.Segments[0].Bytes = 0
		}},
		{"negative base", func(m *manifest) {
			m.BaseCol = -4
		}},
	}
	for _, tc := range cases {
		m := *base
		m.Segments = []Entry{good}
		tc.mutate(&m)
		if err := m.validate(); err == nil {
			t.Errorf("%s: validate accepted a hostile manifest", tc.name)
		}
	}
	m := *base
	m.Segments = []Entry{good}
	if err := m.validate(); err != nil {
		t.Fatalf("control manifest rejected: %v", err)
	}
}

func TestBandedAppendSharesSealedBands(t *testing.T) {
	// Append over a banded pool must not copy sealed bands — and the
	// result must match a from-scratch heap build over the wider table.
	p := testParams()
	dir := t.TempDir()
	full := testTable(t, p.Rows, 24, 0)
	narrow := full.Sub(table.Rect{R0: 0, C0: 0, Rows: p.Rows, Cols: 20})

	st, err := Open(dir, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	banded := mustBanded(t, narrow, p, 0, nil)
	sealAll(t, st, banded, 0)
	v := st.Acquire()
	defer v.Release()
	banded, err = banded.Reband(0, v.Bands(0))
	if err != nil {
		t.Fatalf("Reband: %v", err)
	}
	grown, err := banded.Append(nil, full)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if grown.SealedCols() != banded.SealedCols() {
		t.Fatalf("append changed sealed cols %d → %d", banded.SealedCols(), grown.SealedCols())
	}
	heap := mustHeap(t, full, p, 0)
	assertPoolsIdentical(t, heap, grown, "banded append vs heap")
}
