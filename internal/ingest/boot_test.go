package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fft"
	"repro/internal/segstore"
	"repro/internal/tabstore"
)

// prefill appends days [from, to) to st through its own handle, as an
// offline tabmine-store append does.
func prefill(t *testing.T, st *tabstore.Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := st.AppendDay(fmt.Sprintf("d%03d", i), day(uint64(i)), false); err != nil {
			t.Fatal(err)
		}
	}
}

// resumeCounting opens a fresh ingester over st and resumes it,
// returning it with the FFT correlations the boot ran and its log.
func resumeCounting(t *testing.T, st *tabstore.Store, opts Options) (*Ingester, int64, *strings.Builder) {
	t.Helper()
	var log strings.Builder
	opts.Logf = func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) }
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	before := fft.CorrelationCount()
	if err := ing.Resume(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ing, fft.CorrelationCount() - before, &log
}

// scratchCorrelations is the FFT correlations of a from-scratch build
// over store days [from, to).
func scratchCorrelations(t *testing.T, st *tabstore.Store, from, to int, opts Options) int64 {
	t.Helper()
	before := fft.CorrelationCount()
	scratchPool(t, st, from, to, opts)
	return fft.CorrelationCount() - before
}

// assertSegmentsOnDisk checks that the segment files in dir are exactly
// the live set of ing's segment store.
func assertSegmentsOnDisk(t *testing.T, ing *Ingester, dir string) {
	t.Helper()
	got, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = filepath.Base(got[i])
	}
	slices.Sort(got)
	if live := ing.segs.SegmentFiles(); !slices.Equal(got, live) {
		t.Fatalf("segment files on disk %v, live set %v", got, live)
	}
}

// TestFirstBootSketchesTheWindow: a first boot over H stored days under
// a W-day window builds min(H, W) days plus one segment alignment of
// left context — never the history before it — seals only the window,
// and answers bit for bit as the pool over the whole stream. (The test
// geometry's day is one segment alignment wide.)
func TestFirstBootSketchesTheWindow(t *testing.T) {
	for _, w := range []int{4, 8} {
		for _, h := range []int{w - 1, w, w + 1, 2*w + 3} {
			t.Run(fmt.Sprintf("W=%d/H=%d", w, h), func(t *testing.T) {
				st, _ := newTestStore(t)
				prefill(t, st, 0, h)
				opts := segOptions(t)
				opts.WindowDays = w
				ing, corr, log := resumeCounting(t, st, opts)

				first := h - min(h, w)
				if ing.winStart != first {
					t.Fatalf("window after Resume is days [%d, %d), want [%d, %d)", ing.winStart, h, first, h)
				}
				base, err := st.ColOffset(first)
				if err != nil {
					t.Fatal(err)
				}
				if pl := ing.Pool(); pl.BaseCol() != base || ing.segs.BaseCol() != base || pl.SealedCols() != st.ColsTotal()-base {
					t.Fatalf("pool over [%d, %d) sealed %d, segments from %d; want all of [%d, %d) sealed",
						pl.BaseCol(), pl.HighWaterCols(), pl.SealedCols(), ing.segs.BaseCol(), base, st.ColsTotal())
				}
				if want := scratchCorrelations(t, st, max(first-1, 0), h, opts); corr != want {
					t.Fatalf("boot ran %d correlations, a build over days [%d, %d) runs %d", corr, max(first-1, 0), h, want)
				}
				if want := fmt.Sprintf("window from day %d, %d stored days before it unsketched", first, max(first-1, 0)); !strings.Contains(log.String(), want) {
					t.Fatalf("boot log %q does not say %q", log.String(), want)
				}
				assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "first-boot window vs the stream")
			})
		}
	}
}

// TestRestartPastTheSealedPrefix: days appended offline while the
// ingester was down push the window past every sealed column. The
// restart drops those segments — their files too — and sketches the
// window alone, as a first boot does.
func TestRestartPastTheSealedPrefix(t *testing.T) {
	const w = 4
	st, dir := newTestStore(t)
	opts := segOptions(t)
	opts.WindowDays = w
	ing, err := New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustPush(t, ing, fmt.Sprintf("d%03d", i), day(uint64(i)))
		if err := ing.drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ing.Close()

	other, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prefill(t, other, 6, 6+w+2)
	if st, err = tabstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	ing, corr, _ := resumeCounting(t, st, opts)
	h := st.NumDays()
	if ing.winStart != h-w {
		t.Fatalf("window after Resume is days [%d, %d), want [%d, %d)", ing.winStart, h, h-w, h)
	}
	base, err := st.ColOffset(h - w)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ing.segs.Segments() {
		if e.T0 < base {
			t.Fatalf("segment %+v from before the window at column %d survived", e, base)
		}
	}
	assertSegmentsOnDisk(t, ing, opts.SegmentDir)
	if want := scratchCorrelations(t, st, h-w-1, h, opts); corr != want {
		t.Fatalf("restart ran %d correlations, a build over days [%d, %d) runs %d", corr, h-w-1, h, want)
	}
	assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "restarted window vs the stream")
}

// TestBootInsideTheSealedPrefix: a restart whose window starts inside
// the sealed prefix maps every segment and sketches only the columns
// past them, and a boot without a window builds every stored day; both
// seal what they always did.
func TestBootInsideTheSealedPrefix(t *testing.T) {
	t.Run("restart", func(t *testing.T) {
		const w = 8
		st, dir := newTestStore(t)
		opts := segOptions(t)
		opts.WindowDays = w
		ing, err := New(st, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			mustPush(t, ing, fmt.Sprintf("d%03d", i), day(uint64(i)))
			if err := ing.drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		winStart, before := ing.winStart, ing.segs.Segments()
		sealed := ing.segs.SealedCol()
		ing.Close()

		other, err := tabstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		prefill(t, other, 10, 12) // the window grows to 7 days: no trim
		if st, err = tabstore.Open(dir); err != nil {
			t.Fatal(err)
		}
		ing, corr, _ := resumeCounting(t, st, opts)
		if ing.winStart != winStart {
			t.Fatalf("window after Resume starts at day %d, want %d", ing.winStart, winStart)
		}
		sealedDay, _, err := st.DayAt(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if want := scratchCorrelations(t, st, sealedDay, 12, opts); corr != want {
			t.Fatalf("restart ran %d correlations, the two unsealed days take %d", corr, want)
		}
		want := append(before, segstore.Entry{Level: 0, T0: sealed, T1: st.ColsTotal()})
		got := ing.segs.Segments()
		if len(got) != len(want) {
			t.Fatalf("live segments %+v, want %+v", got, want)
		}
		for i := range want {
			if got[i].Level != want[i].Level || got[i].T0 != want[i].T0 || got[i].T1 != want[i].T1 ||
				(i < len(before) && got[i].File != want[i].File) {
				t.Fatalf("live segments %+v, want %+v", got, want)
			}
		}
		assertSegmentsOnDisk(t, ing, opts.SegmentDir)
		assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "restarted window vs the stream")
	})
	t.Run("no window", func(t *testing.T) {
		const h = 11
		st, _ := newTestStore(t)
		prefill(t, st, 0, h)
		opts := segOptions(t)
		ing, corr, _ := resumeCounting(t, st, opts)
		if want := scratchCorrelations(t, st, 0, h, opts); corr != want {
			t.Fatalf("boot ran %d correlations, a build over every day runs %d", corr, want)
		}
		got := ing.segs.Segments()
		if len(got) != 1 || got[0].Level != 0 || got[0].T0 != 0 || got[0].T1 != st.ColsTotal() {
			t.Fatalf("live segments %+v, want one L0 segment over [0, %d)", got, st.ColsTotal())
		}
		assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "unwindowed boot vs the stream")
	})
}

// TestUpgradeFromVersion3Segments is the upgrade path of a lane format
// change: a store whose segments a float32-lane build wrote (format
// version 3) is refused at Resume with the version error naming the
// segment directory, fsck lists every segment as a version problem and
// touches nothing, and once the operator moves the directory aside a
// restart rebuilds the window from the day files, bit for bit the pool a
// fresh build over the stream gives.
func TestUpgradeFromVersion3Segments(t *testing.T) {
	st, dir := newTestStore(t)
	prefill(t, st, 0, 7)
	opts := segOptions(t)
	opts.WindowDays = 4
	ing, _, _ := resumeCounting(t, st, opts)
	files := ing.segs.SegmentFiles()
	ing.Close()
	if len(files) == 0 {
		t.Fatal("the first boot sealed nothing")
	}
	asVersion3(t, opts.SegmentDir, files)

	var err error
	if st, err = tabstore.Open(dir); err != nil {
		t.Fatal(err)
	}
	ing, err = New(st, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = ing.Resume(context.Background())
	ing.Close()
	if err == nil || !strings.Contains(err.Error(), "segment format version 3,") || !strings.Contains(err.Error(), opts.SegmentDir) {
		t.Fatalf("Resume over version-3 segments: err = %v, want the version error naming %s", err, opts.SegmentDir)
	}

	rep, err := segstore.Fsck(opts.SegmentDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != len(files) || len(rep.Quarantined) != 0 || rep.Rebuilt {
		t.Fatalf("fsck: %+v, want %d version problems and nothing touched", rep, len(files))
	}
	for n, p := range rep.Problems {
		if !strings.Contains(p, files[n]) || !strings.Contains(p, "version 3,") || !strings.Contains(p, "version problem") {
			t.Errorf("fsck problem %q does not name %s as a version problem", p, files[n])
		}
	}

	if err := os.Rename(opts.SegmentDir, opts.SegmentDir+".v3"); err != nil {
		t.Fatal(err)
	}
	ing, _, _ = resumeCounting(t, st, opts)
	if len(ing.segs.SegmentFiles()) == 0 {
		t.Fatal("the rebuild sealed nothing")
	}
	assertSketchesEqual(t, streamPool(t, st, opts), ing.Pool(), "rebuilt after the version-3 segments were moved aside")
}

// asVersion3 rewrites the named segments of dir as a build that wrote
// segment format version 3 would have left them, as far as a reader can
// tell before it refuses: the version word says so, and the manifest's
// whole-file CRC covers each file as written.
func asVersion3(t *testing.T, dir string, files []string) {
	t.Helper()
	manPath := filepath.Join(dir, "segments.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // a seed is a uint64: no trip through float64
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	crcs := make(map[string]uint32)
	for _, name := range files {
		path := filepath.Join(dir, name)
		seg, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(seg[4:8], 3)
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		crcs[name] = crc32.Checksum(seg, crc32.MakeTable(crc32.Castagnoli))
	}
	for _, e := range man["segments"].([]any) {
		e := e.(map[string]any)
		e["crc32c"] = crcs[e["file"].(string)]
	}
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
