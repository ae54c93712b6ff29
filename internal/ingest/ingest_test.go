package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fft"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/tabstore"
	"repro/internal/workload"
)

const (
	testRows    = 16
	testDayCols = 8
)

func testOptions() Options {
	return Options{
		PoolP: 1, PoolK: 4, PoolSeed: 7,
		Pool: core.PoolOptions{
			MinLogRows: 1, MaxLogRows: 3, MinLogCols: 1, MaxLogCols: 3,
			PanelCols: 8,
		},
	}
}

func newTestStore(t *testing.T) (*tabstore.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func day(seed uint64) *table.Table {
	return workload.Random(testRows, testDayCols, 100, seed)
}

// push frames a day as a wire record and pushes it through the
// server.Ingestor entry point, exactly as /v1/ingest would.
func push(t *testing.T, ing *Ingester, label string, day *table.Table) (*server.IngestResult, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecord(&buf, label, day, false); err != nil {
		t.Fatal(err)
	}
	return ing.IngestRecord(context.Background(), &buf)
}

func mustPush(t *testing.T, ing *Ingester, label string, day *table.Table) {
	t.Helper()
	if _, err := push(t, ing, label, day); err != nil {
		t.Fatalf("push %s: %v", label, err)
	}
}

// scratchPool builds the reference pool from scratch over store days
// [from, to), with the base column an incremental pool over the same
// window would carry.
func scratchPool(t *testing.T, st *tabstore.Store, from, to int, opts Options) *core.Pool {
	t.Helper()
	tb, err := st.LoadRange(from, to)
	if err != nil {
		t.Fatal(err)
	}
	base, err := st.ColOffset(from)
	if err != nil {
		t.Fatal(err)
	}
	po := opts.Pool
	po.BaseCol = base
	pl, err := core.NewPool(tb, opts.PoolP, opts.PoolK, opts.PoolSeed, po)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPushAndIncrementalMaintenance(t *testing.T) {
	st, dir := newTestStore(t)
	ing, err := New(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two more arrive after the first build: these take the Append path.
	for i := 2; i < 4; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ing.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", ing.Pending())
	}
	if got, want := ing.Pool().HighWaterCols(), st.ColsTotal(); got != want {
		t.Fatalf("HighWaterCols = %d, store has %d", got, want)
	}
	assertSketchesEqual(t, scratchPool(t, st, 0, 4, ing.opts), ing.Pool(), "incremental vs from scratch")
	// With no SegmentDir named, the sealed prefix lands in the store's own
	// segments subdirectory.
	if st.SegmentsDir() != filepath.Join(dir, tabstore.SegmentsDirName) {
		t.Fatalf("SegmentsDir = %s", st.SegmentsDir())
	}
	segs, err := filepath.Glob(filepath.Join(st.SegmentsDir(), "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files under %s (err %v)", st.SegmentsDir(), err)
	}
}

func TestBacklogSheds(t *testing.T) {
	st, _ := newTestStore(t)
	opts := testOptions()
	opts.QueueLen = 2
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))
	_, err = push(t, ing, "d02", day(2))
	if !errors.Is(err, server.ErrIngestBacklog) {
		t.Fatalf("push over the backlog bound: %v, want ErrIngestBacklog", err)
	}
	if st.NumDays() != 2 {
		t.Fatalf("shed push still reached the store: %d days", st.NumDays())
	}
	// Draining frees the backlog and the retry lands.
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d02", day(2))
}

// Crash-safe resume: the store (the WAL) runs ahead of the sealed
// segments; a restart re-sketches exactly the missing columns and ends
// byte-identical to a from-scratch build — at less FFT work.
func TestResumeReplaysMissingDays(t *testing.T) {
	st, dir := newTestStore(t)
	opts := testOptions()
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The crash: one more day lands durably, but the process dies
	// before the pool catches up.
	mustPush(t, ing, "d03", day(3))

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

	before = fft.CorrelationCount()
	want := scratchPool(t, st2, 0, 4, opts)
	scratchCorr := fft.CorrelationCount() - before

	assertSketchesEqual(t, want, ing2.Pool(), "resumed vs from scratch")
	if resumeCorr >= scratchCorr {
		t.Fatalf("resume ran %d correlations, not fewer than the %d of a full rebuild",
			resumeCorr, scratchCorr)
	}
	t.Logf("resume: %d correlations vs %d from scratch", resumeCorr, scratchCorr)
}

// Segments written under other sketch parameters are refused, not
// silently rebuilt: Resume returns the segment store's error, which names
// the directory; once the operator removes it the store rebuilds the truth.
func TestResumeRefusesMismatchedSegments(t *testing.T) {
	st, _ := newTestStore(t)
	opts := testOptions()
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ing.Close()

	opts.PoolK = 8
	ing2, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = ing2.Resume(context.Background())
	if err == nil || !strings.Contains(err.Error(), st.SegmentsDir()) {
		t.Fatalf("Resume over k=4 segments with k=8: err = %v, want a refusal naming %s", err, st.SegmentsDir())
	}
	if err := os.RemoveAll(st.SegmentsDir()); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	assertSketchesEqual(t, scratchPool(t, st, 0, 2, opts), ing2.Pool(), "rebuilt after removing mismatched segments")
}

// A torn append — the process dies mid-write of a day file — must leave
// the store ingestable: the injected-fault push fails cleanly without a
// manifest entry, the stray temp of a crashed write is swept on reopen,
// and the pool ends byte-identical to a from-scratch build.
func TestTornAppendRecovery(t *testing.T) {
	st, dir := newTestStore(t)
	ing, err := New(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))

	// Fault injection: the first write of the next day file tears.
	atomicio.TestWrapWriter = func(path string, w io.Writer) io.Writer {
		if strings.Contains(filepath.Base(path), "day-") {
			return &faultinject.Writer{W: w, FailAt: 1, Short: true}
		}
		return w
	}
	defer func() { atomicio.TestWrapWriter = nil }()
	if _, err := push(t, ing, "d02", day(2)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn push: %v, want ErrInjected", err)
	}
	atomicio.TestWrapWriter = nil
	if st.NumDays() != 2 {
		t.Fatalf("torn push left %d manifest days, want 2", st.NumDays())
	}

	// A crash at the worst moment leaves the temp file behind instead;
	// plant one and reopen, as a restarting process would.
	torn := filepath.Join(dir, "day-0002.tabf.tmp-crashed")
	if err := os.WriteFile(torn, []byte("partial bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp not swept on reopen: %v", err)
	}
	ing2, err := New(st2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing2, "d02", day(2))
	if err := ing2.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSketchesEqual(t, scratchPool(t, st2, 0, 3, ing2.opts), ing2.Pool(), "torn-append recovery vs from scratch")
}

// TestSecondWriterFailsThePush: a served store has one writer. When
// another handle appends a day behind a running server, the next HTTP
// push is refused with 409 Conflict rather than acknowledged over a
// manifest that drops the other day; every acknowledged day survives, and a restart adopts
// the external day.
func TestSecondWriterFailsThePush(t *testing.T) {
	st, dir := newTestStore(t)
	if err := st.AppendDay("d00", day(0), false); err != nil { // seeded offline
		t.Fatal(err)
	}
	ing, err := New(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ing.Resume(ctx); err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- ing.Run(ctx) }()
	stop := sync.OnceFunc(func() { cancel(); <-ran; ing.Close() })
	defer stop()
	srv, err := server.New(nil, server.Config{Ingestor: ing})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl, err := client.New(client.Config{BaseURL: ts.URL, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	record := func(label string, seed uint64) []byte {
		var buf bytes.Buffer
		if err := WriteRecord(&buf, label, day(seed), false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if _, err := cl.Ingest(ctx, record("d01", 1)); err != nil {
		t.Fatalf("push d01: %v", err)
	}
	other, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AppendDay("ext", day(2), false); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Ingest(ctx, record("d02", 3))
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || !strings.Contains(se.Msg, "another writer") {
		t.Fatalf("push over another writer's day: %+v, %v; want a 409 refusal", res, err)
	}

	stop()
	st2, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st2.Labels(), []string{"d00", "d01", "ext"}; !slices.Equal(got, want) {
		t.Fatalf("store after the refused push lists %v, want %v", got, want)
	}
	ing2, err := New(st2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if err := ing2.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := ing2.Pool().HighWaterCols(), st2.ColsTotal(); got != want {
		t.Fatalf("resumed pool reaches column %d, store has %d", got, want)
	}
	assertSketchesEqual(t, scratchPool(t, st2, 0, 3, ing2.opts), ing2.Pool(), "resume over the external day vs from scratch")
}

// Cancellation mid-rebuild publishes nothing and advances nothing; the
// next drain completes the same work byte-identically.
func TestMidRebuildCancellation(t *testing.T) {
	st, _ := newTestStore(t)
	ing, err := New(st, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hw := ing.Pool().HighWaterCols()
	mustPush(t, ing, "d02", day(2))
	mustPush(t, ing, "d03", day(3))

	ctx := faultinject.CancelAfterChecks(context.Background(), 3)
	if err := ing.drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled drain: %v, want context.Canceled", err)
	}
	if ing.Pending() != 2 {
		t.Fatalf("cancelled drain advanced the cursor: %d pending, want 2", ing.Pending())
	}
	if ing.Pool().HighWaterCols() != hw {
		t.Fatal("cancelled drain mutated the pool")
	}
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSketchesEqual(t, scratchPool(t, st, 0, 4, ing.opts), ing.Pool(), "drain after cancellation vs from scratch")
}

func TestWindowTrimHysteresis(t *testing.T) {
	st, _ := newTestStore(t)
	opts := testOptions()
	opts.WindowDays = 4
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustPush(t, ing, fmt.Sprintf("d%02d", i), day(uint64(i)))
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Day 4 overflowed the 4-day window and trimmed down to 2 kept days
	// (hysteresis), so after day 5 the window is days [3, 6). Trims drop
	// whole segments; a day here is exactly one segment wide, so the cut
	// lands on the day boundary asked for.
	if ing.winStart != 3 {
		t.Fatalf("window starts at day %d, want 3", ing.winStart)
	}
	base, err := st.ColOffset(ing.winStart)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Pool().BaseCol() != base {
		t.Fatalf("pool BaseCol = %d, want %d", ing.Pool().BaseCol(), base)
	}
	if got, want := ing.Pool().HighWaterCols(), st.ColsTotal(); got != want {
		t.Fatalf("HighWaterCols = %d, want %d", got, want)
	}
	assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "trimmed window vs the stream")
}

type capturingPublisher struct {
	snaps []*server.Snapshot
}

func (p *capturingPublisher) Publish(sn *server.Snapshot) { p.snaps = append(p.snaps, sn) }

func TestPublishesSnapshots(t *testing.T) {
	st, _ := newTestStore(t)
	pub := &capturingPublisher{}
	opts := testOptions()
	opts.Publisher = pub
	opts.Snapshot = server.SnapshotConfig{TileRows: 8, TileCols: 8}
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d00", day(0))
	mustPush(t, ing, "d01", day(1))
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustPush(t, ing, "d02", day(2))
	if err := ing.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(pub.snaps) != 2 {
		t.Fatalf("published %d snapshots, want 2", len(pub.snaps))
	}
	last := pub.snaps[len(pub.snaps)-1]
	if last.Table().Cols() != st.ColsTotal() {
		t.Fatalf("published snapshot over %d cols, store has %d", last.Table().Cols(), st.ColsTotal())
	}
	if last.NumTiles() != (testRows/8)*(st.ColsTotal()/8) {
		t.Fatalf("published snapshot has %d tiles", last.NumTiles())
	}
}

func TestRecordRoundTrip(t *testing.T) {
	tb := day(9)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteRecord(&buf, "d2026-08-06", tb, compress); err != nil {
			t.Fatal(err)
		}
		label, got, err := ReadRecord(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if label != "d2026-08-06" {
			t.Fatalf("label %q", label)
		}
		if !bytes.Equal(float64Bytes(got.Data()), float64Bytes(tb.Data())) {
			t.Fatal("cells did not round-trip")
		}
	}
}

func float64Bytes(xs []float64) []byte {
	var buf bytes.Buffer
	for _, x := range xs {
		fmt.Fprintf(&buf, "%x;", x)
	}
	return buf.Bytes()
}

func TestRecordRejects(t *testing.T) {
	tb := day(10)
	var ok bytes.Buffer
	if err := WriteRecord(&ok, "d00", tb, false); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("XREC"), ok.Bytes()[4:]...),
		"truncated label": ok.Bytes()[:11],
		"truncated table": ok.Bytes()[:ok.Len()-9],
	}
	for name, raw := range cases {
		if _, _, err := ReadRecord(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := WriteRecord(io.Discard, "bad/label", tb, false); err == nil {
		t.Error("separator label accepted")
	}
	if err := WriteRecord(io.Discard, "", tb, false); err == nil {
		t.Error("empty label accepted")
	}
	if err := WriteRecord(io.Discard, "sp ace", tb, false); err == nil {
		t.Error("label with a space accepted")
	}
}

// TestRecordHeaderIsNotTrusted: a record whose table header claims a
// table at the tabfile cap, in either shape, over three cells of payload,
// plain or gzip, is refused having allocated under a MiB.
func TestRecordHeaderIsNotTrusted(t *testing.T) {
	for _, dims := range [][2]uint64{{1, 1 << 31}, {1 << 31, 1}, {1 << 16, 1 << 15}} {
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if err := WriteRecord(&buf, "d00", table.New(1, 3), compress); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			dimsAt := 10 + len("d00") + 8 // record header, label, TABF magic and version
			binary.LittleEndian.PutUint64(raw[dimsAt:], dims[0])
			binary.LittleEndian.PutUint64(raw[dimsAt+8:], dims[1])
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := ReadRecord(bytes.NewReader(raw))
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
				t.Errorf("%dx%d gzip=%v: ReadRecord returned %v having allocated %d bytes",
					dims[0], dims[1], compress, err, n)
			}
		}
	}
}
