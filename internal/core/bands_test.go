package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fft"
	"repro/internal/table"
)

func bandedTestTable(rows, cols int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	tb := table.New(rows, cols)
	d := tb.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return tb
}

func bandedTestOpts(workers int) PoolOptions {
	return PoolOptions{MinLogRows: 1, MaxLogRows: 2, MinLogCols: 1, MaxLogCols: 2,
		PanelCols: 4, Workers: workers}
}

// sealFromPool builds SealedBand views of table columns [0, sealedTo)
// in chunk-column slices whose payloads are copied out of src — the
// in-core stand-in for segment-file mappings.
func sealFromPool(t testing.TB, src *Pool, sealedTo, chunk int) []SealedBand {
	t.Helper()
	var bands []SealedBand
	for c0 := 0; c0 < sealedTo; c0 += chunk {
		c1 := c0 + chunk
		if c1 > sealedTo {
			c1 = sealedTo
		}
		payload := make(map[LaneID][]fft.Lane)
		for _, id := range src.Lanes() {
			data, err := src.CopyLaneBand(id, c0, c1, nil)
			if err != nil {
				t.Fatalf("CopyLaneBand %+v [%d,%d): %v", id, c0, c1, err)
			}
			payload[id] = data
		}
		bands = append(bands, SealedBand{C0: c0, C1: c1,
			Lane: func(id LaneID) []fft.Lane { return payload[id] }})
	}
	return bands
}

// shiftBands re-expresses bands over a table whose column 0 is the
// bands' column d.
func shiftBands(bands []SealedBand, d int) []SealedBand {
	out := make([]SealedBand, len(bands))
	for i, sb := range bands {
		out[i] = SealedBand{C0: sb.C0 - d, C1: sb.C1 - d, Lane: sb.Lane}
	}
	return out
}

// assertLanesIdentical compares every lane byte-for-byte via
// CopyLaneBand — a stronger check than sketch comparison because it
// covers all precomputed planes, not just queried rectangles.
func assertLanesIdentical(t *testing.T, want, got *Pool, label string) {
	t.Helper()
	var wbuf, gbuf []fft.Lane
	_, cols := want.TableDims()
	if _, gcols := got.TableDims(); gcols != cols {
		t.Fatalf("%s: pools over %d and %d columns", label, cols, gcols)
	}
	for _, id := range want.Lanes() {
		rows := want.LaneRows(id)
		var err error
		wbuf, err = want.CopyLaneBand(id, 0, cols, wbuf)
		if err != nil {
			t.Fatalf("%s: want lane %+v: %v", label, id, err)
		}
		gbuf, err = got.CopyLaneBand(id, 0, cols, gbuf)
		if err != nil {
			t.Fatalf("%s: got lane %+v: %v", label, id, err)
		}
		for i := range wbuf {
			if wbuf[i] != gbuf[i] {
				t.Fatalf("%s: lane %+v (%d rows) differs at lane %d: %#04x != %#04x",
					label, id, rows, i, gbuf[i], wbuf[i])
			}
		}
	}
}

// TestBandedPoolMatchesHeapPool pins the central mmap-serving contract:
// a banded pool whose sealed prefix was adopted from externally stored
// bands is byte-identical to a from-scratch heap pool, at every worker
// count.
func TestBandedPoolMatchesHeapPool(t *testing.T) {
	tb := bandedTestTable(8, 20, 1)
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		opts := bandedTestOpts(workers)
		heap, err := NewPool(tb, 2, 6, 99, opts)
		if err != nil {
			t.Fatalf("workers=%d: NewPool: %v", workers, err)
		}
		if heap.SealedCols() != 0 {
			t.Fatalf("workers=%d: heap pool claims sealed columns", workers)
		}
		// All-fringe pool through the sealed-band entry point.
		allFringe, err := NewBandedPool(tb, 2, 6, 99, opts, nil)
		if err != nil {
			t.Fatalf("workers=%d: NewBandedPool(nil): %v", workers, err)
		}
		assertLanesIdentical(t, heap, allFringe, "all-fringe")

		// Sealed banded pool: adopt [0, 12) in 4-column bands, rebuild the
		// fringe from the table.
		if sa := heap.SegAlign(); sa != 4 {
			t.Fatalf("workers=%d: SegAlign %d, want 4", workers, sa)
		}
		sealed := sealFromPool(t, heap, 12, 4)
		banded, err := NewBandedPool(tb, 2, 6, 99, opts, sealed)
		if err != nil {
			t.Fatalf("workers=%d: NewBandedPool: %v", workers, err)
		}
		if banded.SealedCols() != 12 {
			t.Fatalf("workers=%d: sealed=%d", workers, banded.SealedCols())
		}
		assertLanesIdentical(t, heap, banded, "sealed-banded")
	}
}

// TestLocateOverManyBands reads every position of every lane of a pool
// with 103 sealed bands — one per segment of a long window — through
// locate's binary search, and wants each bit equal to the heap pool's.
func TestLocateOverManyBands(t *testing.T) {
	const bands = 103
	opts := bandedTestOpts(2)
	tb := bandedTestTable(8, bands*4+6, 3)
	heap, err := NewPool(tb, 2, 6, 99, opts)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	banded, err := NewBandedPool(tb, 2, 6, 99, opts, sealFromPool(t, heap, bands*4, 4))
	if err != nil {
		t.Fatalf("NewBandedPool: %v", err)
	}
	var want, got []float64
	for key, sets := range heap.entries {
		for s, ps := range sets {
			bs := banded.entries[key][s]
			if len(bs.bands) != bands+1 {
				t.Fatalf("size %v set %d: %d bands, want %d sealed and the fringe", key, s, len(bs.bands), bands)
			}
			rows, cols := ps.rows, ps.cols
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					want, got = ps.SketchAt(r, c, want), bs.SketchAt(r, c, got)
					for i := range want {
						if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
							t.Fatalf("size %v set %d position (%d,%d) lane %d: %v != %v",
								key, s, r, c, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBandedAppendMatchesHeap grows a sealed banded pool by appended
// columns and checks byte identity against a from-scratch heap build
// over the wider table; sealed bands must be shared, not copied.
func TestBandedAppendMatchesHeap(t *testing.T) {
	full := bandedTestTable(8, 26, 2)
	narrow := full.Sub(table.Rect{R0: 0, C0: 0, Rows: 8, Cols: 20})
	opts := bandedTestOpts(2)

	heapNarrow, err := NewPool(narrow, 2, 6, 7, opts)
	if err != nil {
		t.Fatalf("NewPool narrow: %v", err)
	}
	sealed := sealFromPool(t, heapNarrow, 16, 8)
	banded, err := NewBandedPool(narrow, 2, 6, 7, opts, sealed)
	if err != nil {
		t.Fatalf("NewBandedPool: %v", err)
	}
	grown, err := banded.Append(nil, full)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if grown.SealedCols() != 16 {
		t.Fatalf("append moved sealed cols: %d", grown.SealedCols())
	}
	heapFull, err := NewPool(full, 2, 6, 7, opts)
	if err != nil {
		t.Fatalf("NewPool full: %v", err)
	}
	assertLanesIdentical(t, heapFull, grown, "banded-append")
}

// TestRebandPreservesBytes converts a heap panel pool to banded form
// (the first-seal transition) and re-expresses a banded pool over a
// coarser band partition (the post-compaction transition); neither may
// change a byte.
func TestRebandPreservesBytes(t *testing.T) {
	tb := bandedTestTable(8, 20, 3)
	opts := bandedTestOpts(0)
	heap, err := NewPool(tb, 2, 6, 13, opts)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}

	firstSeal, err := heap.Reband(0, sealFromPool(t, heap, 8, 4))
	if err != nil {
		t.Fatalf("Reband heap→banded: %v", err)
	}
	if firstSeal.SealedCols() != 8 {
		t.Fatalf("first seal: sealed=%d", firstSeal.SealedCols())
	}
	assertLanesIdentical(t, heap, firstSeal, "first-seal")

	// Seal further and coarsen: one 16-column band replaces 4-column ones.
	merged, err := firstSeal.Reband(0, sealFromPool(t, heap, 16, 16))
	if err != nil {
		t.Fatalf("Reband coarser: %v", err)
	}
	if merged.SealedCols() != 16 {
		t.Fatalf("merged sealed=%d", merged.SealedCols())
	}
	assertLanesIdentical(t, heap, merged, "coarse-reband")

	// Unsealing is refused.
	if _, err := merged.Reband(0, sealFromPool(t, heap, 8, 8)); err == nil {
		t.Fatal("Reband accepted a shrinking sealed prefix")
	}
}

// TestRebaseMatchesBandedBuild: a re-base by d — what a window trim does
// to the pool it has — equals NewBandedPool over the trimmed table with
// the same bands, byte for byte, shares the old pool's sketchers instead
// of regenerating them, and leaves every surviving tile the byte the
// stream's pool has at the same absolute position.
func TestRebaseMatchesBandedBuild(t *testing.T) {
	const rows, cols, drop = 8, 30, 8
	stream := bandedTestTable(rows, cols, 6)
	trimmed := stream.Sub(table.Rect{R0: 0, C0: drop, Rows: rows, Cols: cols - drop})
	opts := bandedTestOpts(2)
	heap, err := NewPool(stream, 2, 6, 21, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sealTo := range []int{drop, 20, 28} { // nothing, some and all but a ragged tail sealed past the drop
		bands := sealFromPool(t, heap, sealTo, 4)
		old, err := heap.Reband(0, bands)
		if err != nil {
			t.Fatal(err)
		}
		kept := shiftBands(bands[drop/4:], drop)
		rebased, err := old.Reband(drop, kept)
		if err != nil {
			t.Fatalf("sealed %d: Reband(%d): %v", sealTo, drop, err)
		}
		if rebased.BaseCol() != drop || rebased.SealedCols() != sealTo-drop {
			t.Fatalf("sealed %d: rebased pool base %d sealed %d", sealTo, rebased.BaseCol(), rebased.SealedCols())
		}
		bopts := opts
		bopts.BaseCol = drop
		built, err := NewBandedPool(trimmed, 2, 6, 21, bopts, kept)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range old.Lanes() {
			key := [2]int{id.I, id.J}
			if rebased.entries[key][id.S].sk != old.entries[key][id.S].sk {
				t.Fatalf("sealed %d: lane %+v regenerated its sketcher", sealTo, id)
			}
			// Fringe bytes: the built pool computed them from the trimmed
			// table (from its second panel on, where slabs have their left
			// context), the rebased pool copied them.
			bf, rf := built.entries[key][id.S].bands, rebased.entries[key][id.S].bands
			b, r := bf[len(bf)-1], rf[len(rf)-1]
			if b.c0 != r.c0 || b.c1 != r.c1 || len(b.data) != len(r.data) {
				t.Fatalf("sealed %d: lane %+v fringe [%d,%d) vs [%d,%d)", sealTo, id, r.c0, r.c1, b.c0, b.c1)
			}
		}
		if sealTo > drop { // with nothing sealed the built pool's first panel lacks its left context
			assertLanesIdentical(t, built, rebased, "rebased vs banded build")
		}
		// Against the stream's pool at the shifted position, every rectangle.
		for h := 2; h <= 8; h++ {
			for w := 2; w <= 8; w++ {
				for c := 0; c+w <= cols-drop; c++ {
					got, err := rebased.Sketch(table.Rect{R0: 0, C0: c, Rows: h, Cols: w}, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := heap.Sketch(table.Rect{R0: 0, C0: c + drop, Rows: h, Cols: w}, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("sealed %d: %dx%d at column %d lane %d: rebased %v, stream %v",
								sealTo, h, w, c, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	// Re-basing refuses to unseal, to cut inside the alignment, and to
	// leave less than one maximal tile.
	old, err := heap.Reband(0, sealFromPool(t, heap, 20, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		drop  int
		bands []SealedBand
	}{
		{8, shiftBands(sealFromPool(t, heap, 16, 4)[2:], 8)}, // sealed 20 → 16
		{6, nil}, {-4, nil}, {28, nil},
	} {
		if _, err := old.Reband(bad.drop, bad.bands); err == nil {
			t.Fatalf("Reband(%d, %d bands) accepted", bad.drop, len(bad.bands))
		}
	}
}

// laneBlobOracle is LaneBlob's layout read through the plane set's own
// lanes: entry (r, e − c0, i) is lane i of the tile anchored at
// (r, e − b + 1), zero where that anchor precedes column 0.
func laneBlobOracle(pl *Pool, id LaneID, c0, c1 int) []fft.Lane {
	ps := pl.entries[[2]int{id.I, id.J}][id.S]
	b := 1 << id.J
	var out []fft.Lane
	for r := 0; r < ps.rows; r++ {
		for e := c0; e < c1; e++ {
			if a := e - b + 1; a >= 0 {
				out = append(out, ps.lanes(r, a)...)
			} else {
				out = append(out, make([]fft.Lane, pl.k)...)
			}
		}
	}
	return out
}

// TestLaneBlobStreamsTheFringeInPlace: a seal of every unsealed column
// of a pool whose width is a segment boundary — the shape of each
// aligned day an ingester appends and seals — hands the writer the heap
// fringe itself, one run per lane, copying nothing. Any other band
// (from column 0, where tiles start before the table; a band short of
// the pool's end; one across sealed and heap bands) streams in rows. All
// of them carry the bytes the plane sets hold.
func TestLaneBlobStreamsTheFringeInPlace(t *testing.T) {
	full := bandedTestTable(8, 24, 5)
	opts := bandedTestOpts(1)
	heap, err := NewPool(prefixTable(t, full, 16), 2, 6, 21, opts)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := heap.Reband(0, sealFromPool(t, heap, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	day, err := sealed.Append(context.Background(), full) // the next aligned columns [16, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		pl      *Pool
		c0, c1  int
		inPlace bool
	}{
		{"seal of the appended day", day, 8, 24, true},
		{"a heap pool's first seal past its first alignment", heap, 4, 16, false},
		{"from column 0", heap, 0, 16, false},
		{"short of the pool's end", day, 8, 20, false},
		{"across sealed and heap bands", day, 4, 24, false},
	} {
		for _, id := range tc.pl.Lanes() {
			var runs [][]fft.Lane
			if err := tc.pl.LaneBlob(id, tc.c0, tc.c1, func(run []fft.Lane) error {
				runs = append(runs, run)
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			fringe := tc.pl.entries[[2]int{id.I, id.J}][id.S].bands
			fb := fringe[len(fringe)-1]
			if got := len(runs) == 1 && &runs[0][0] == &fb.data[0]; got != tc.inPlace {
				t.Fatalf("%s lane %+v: %d runs, in place %v, want in place %v", tc.name, id, len(runs), got, tc.inPlace)
			}
			var blob []fft.Lane
			for _, run := range runs {
				blob = append(blob, run...)
			}
			if want := laneBlobOracle(tc.pl, id, tc.c0, tc.c1); !slices.Equal(blob, want) {
				t.Fatalf("%s lane %+v: blob differs from the plane set's lanes", tc.name, id)
			}
		}
	}
}
