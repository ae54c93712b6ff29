package tabfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/table"
	"repro/internal/workload"
)

// headerOver encodes a 1 × 3 table, gzip-compressed when compress is
// set, under a header patched to claim rows × cols (the dimensions sit
// outside the compressed payload).
func headerOver(t *testing.T, rows, cols uint64, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, table.New(1, 3), compress); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[8:], rows)
	binary.LittleEndian.PutUint64(raw[16:], cols)
	return raw
}

// allocated returns the bytes f allocated on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHeaderIsNotTrustedBeforeThePayload: a header claiming a table at
// the maxCells cap, in either shape, over three cells of payload, plain
// or gzip, must fail in Read and in NewRowReader+Next having allocated
// under a MiB — the readers size nothing from the header until the
// payload has delivered it.
func TestHeaderIsNotTrustedBeforeThePayload(t *testing.T) {
	for _, dims := range [][2]uint64{{1, 1 << 31}, {1 << 31, 1}, {1 << 16, 1 << 15}} {
		for _, compress := range []bool{false, true} {
			raw := headerOver(t, dims[0], dims[1], compress)
			name := fmt.Sprintf("%dx%d gzip=%v", dims[0], dims[1], compress)
			var err error
			n := allocated(func() { _, err = Read(bytes.NewReader(raw)) })
			if err == nil || n >= 1<<20 {
				t.Errorf("%s: Read returned %v having allocated %d bytes", name, err, n)
			}
			n = allocated(func() {
				var rr *RowReader
				if rr, err = NewRowReader(bytes.NewReader(raw)); err != nil {
					return
				}
				for err == nil {
					_, err = rr.Next()
				}
			})
			if err == nil || n >= 1<<20 {
				t.Errorf("%s: NewRowReader+Next returned %v having allocated %d bytes", name, err, n)
			}
		}
	}
}

// TestRowsSpanningChunks: rows wider than one read chunk stream and load
// bit for bit, and a non-finite cell past the first chunk is reported at
// its own index.
func TestRowsSpanningChunks(t *testing.T) {
	const rows, cols = 3, 2*rowChunk + 3
	tb := workload.Random(rows, cols, 100, 5)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Write(&buf, tb, compress); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if !table.EqualApprox(tb, got, 0) {
			t.Errorf("compress=%v: wide rows altered on load", compress)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, tb, false); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const bad = cols + rowChunk + 1 // second row, second chunk
	binary.LittleEndian.PutUint64(raw[28+8*bad:], math.Float64bits(math.Inf(1)))
	_, err := Read(bytes.NewReader(raw))
	if !errors.Is(err, table.ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("cell %d ", bad)) {
		t.Errorf("Inf at cell %d: got %v", bad, err)
	}
}
